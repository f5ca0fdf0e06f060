/**
 * @file
 * Ablation: inclusive vs victim (exclusive) L2 LUT (DESIGN.md AB2b).
 * Section 3 calls the L2 LUT "inclusive" while Section 3.4 describes L1
 * victims being "evicted to L2" — the two policies differ in effective
 * capacity and in L2 traffic. This artifact compares them on the
 * benchmarks whose memoization working set actually exceeds the L1
 * LUT.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

constexpr const char *kSubset[] = {"blackscholes", "fft", "inversek2j",
                                   "kmeans"};

class AblateL2PolicyArtifact final : public Artifact
{
  public:
    std::string name() const override { return "ablate_l2_policy"; }
    std::string
    title() const override
    {
        return "Ablation: inclusive vs victim L2 LUT policy";
    }
    std::string
    description() const override
    {
        return "inclusive versus victim L2 LUT content policy at two "
               "L2 LUT sizes";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        for (const char *name : kSubset) {
            for (std::uint64_t l2 : {64ull * 1024, 256ull * 1024}) {
                ExperimentConfig inclusive = defaultConfig();
                inclusive.lut = {8 * 1024, l2};
                inclusive.l2Policy = L2LutPolicy::Inclusive;
                engine.enqueueCompare(name, "axmemo", inclusive);

                ExperimentConfig victim = inclusive;
                victim.l2Policy = L2LutPolicy::Victim;
                engine.enqueueCompare(name, "axmemo", victim);
            }
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "L2 size", "hit (inclusive)",
                      "speedup (inclusive)", "hit (victim)",
                      "speedup (victim)"});

        std::size_t next = 0;
        for (const char *name : kSubset) {
            for (std::uint64_t l2 : {64ull * 1024, 256ull * 1024}) {
                const Comparison &a = outcomes[next++].cmp;
                const Comparison &b = outcomes[next++].cmp;

                table.row({name, std::to_string(l2 / 1024) + "KB",
                           TextTable::percent(a.subject.hitRate()),
                           TextTable::times(a.speedup),
                           TextTable::percent(b.subject.hitRate()),
                           TextTable::times(b.speedup)});
            }
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "expectation: the victim policy's extra effective "
                "capacity matters when the working set is within "
                "L1+L2 reach; with an ample L2 both converge, which is "
                "why the paper's description can afford to be loose\n");
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(45, AblateL2PolicyArtifact)

} // namespace
} // namespace axmemo::bench
