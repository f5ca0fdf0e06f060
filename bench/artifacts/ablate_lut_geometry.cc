/**
 * @file
 * Ablation: LUT capacity and levels (DESIGN.md AB2). Sweeps the L1 LUT
 * from 1 KB to 32 KB with and without a 512 KB L2 LUT and reports hit
 * rate and speedup, exposing each benchmark's memoization working set —
 * the effect Fig. 7's "similar to when the data cache outgrows the
 * working set" comment describes — and what the dedicated SRAM would
 * cost at each size.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

constexpr std::uint64_t kSizes[] = {1024, 2048,  4096,
                                    8192, 16384, 32768};
constexpr const char *kSubset[] = {"blackscholes", "fft", "inversek2j",
                                   "sobel"};

class AblateLutGeometryArtifact final : public Artifact
{
  public:
    std::string name() const override { return "ablate_lut_geometry"; }
    std::string
    title() const override
    {
        return "Ablation AB2: LUT capacity sweep";
    }
    std::string
    description() const override
    {
        return "L1 LUT size sweep with and without a 512KB L2 LUT, "
               "exposing each benchmark's memoization working set";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        for (const char *name : kSubset) {
            for (std::uint64_t size : kSizes) {
                ExperimentConfig l1Only = defaultConfig();
                l1Only.lut = {size, 0};
                engine.enqueueCompare(name, "axmemo", l1Only);

                ExperimentConfig twoLevel = defaultConfig();
                twoLevel.lut = {size, 512 * 1024};
                engine.enqueueCompare(name, "axmemo", twoLevel);
            }
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "L1 size", "hit (L1 only)",
                      "speedup (L1 only)", "hit (+L2 512KB)",
                      "speedup (+L2 512KB)", "L1 area (mm^2)"});

        std::size_t next = 0;
        for (const char *name : kSubset) {
            for (std::uint64_t size : kSizes) {
                const Comparison &a = outcomes[next++].cmp;
                const Comparison &b = outcomes[next++].cmp;

                table.row({name, std::to_string(size / 1024) + "KB",
                           TextTable::percent(a.subject.hitRate()),
                           TextTable::times(a.speedup),
                           TextTable::percent(b.subject.hitRate()),
                           TextTable::times(b.speedup),
                           TextTable::num(AreaModel::lutAreaMm2(size),
                                          4)});
            }
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(41, AblateLutGeometryArtifact)

} // namespace
} // namespace axmemo::bench
