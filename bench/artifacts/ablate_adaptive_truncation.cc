/**
 * @file
 * Ablation: the runtime (dynamic) truncation controller of Section
 * 3.1's "dynamic approach" — the paper describes it as an alternative
 * to static profiling but never evaluates it. Each benchmark is started
 * at a deliberately shallow truncation level (as if no profiling data
 * existed); the controller's periodic profiling phases then deepen the
 * level while the measured error stays under target. Compared against
 * the static Table 2 levels and against the shallow level without the
 * controller.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

// Benchmarks whose Table 2 level is nonzero (the controller only
// deepens approximable inputs).
constexpr const char *kSubset[] = {"inversek2j", "kmeans", "sobel",
                                   "hotspot", "srad"};

class AblateAdaptiveTruncationArtifact final : public Artifact
{
  public:
    std::string
    name() const override
    {
        return "ablate_adaptive_truncation";
    }
    std::string
    title() const override
    {
        return "Ablation: static profiling vs runtime truncation "
               "control";
    }
    std::string
    description() const override
    {
        return "runtime truncation controller recovering the "
               "statically profiled benefit from a shallow start";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        for (const char *name : kSubset) {
            engine.enqueueCompare(name, "axmemo", defaultConfig());

            ExperimentConfig shallow = defaultConfig();
            shallow.truncOverride = 2; // almost no approximation
            engine.enqueueCompare(name, "axmemo", shallow);

            ExperimentConfig adaptive = shallow;
            adaptive.adaptive.enabled = true;
            adaptive.adaptive.profilePeriod = 2500;
            adaptive.adaptive.profileLength = 30;
            adaptive.adaptive.targetError = 0.01;
            adaptive.adaptive.maxExtraBits = 14;
            engine.enqueueCompare(name, "axmemo", adaptive);
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "static(Table2) speedup", "hit",
                      "shallow speedup", "hit",
                      "shallow+adaptive speedup", "hit", "raises",
                      "quality"});

        std::size_t next = 0;
        for (const char *name : kSubset) {
            const Comparison &staticRun = outcomes[next++].cmp;
            const Comparison &shallowRun = outcomes[next++].cmp;
            const Comparison &adaptiveRun = outcomes[next++].cmp;

            table.row(
                {name, TextTable::times(staticRun.speedup),
                 TextTable::percent(staticRun.subject.hitRate(), 0),
                 TextTable::times(shallowRun.speedup),
                 TextTable::percent(shallowRun.subject.hitRate(), 0),
                 TextTable::times(adaptiveRun.speedup),
                 TextTable::percent(adaptiveRun.subject.hitRate(), 0),
                 std::to_string(
                     adaptiveRun.subject.stats.memo.adaptiveRaises),
                 TextTable::percent(adaptiveRun.qualityLoss, 2)});
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "expectation: starting shallow costs most of the hit "
                "rate; the runtime controller recovers a large part of "
                "the statically-profiled benefit without offline "
                "profiling, at bounded error\n");
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(44, AblateAdaptiveTruncationArtifact)

} // namespace
} // namespace axmemo::bench
