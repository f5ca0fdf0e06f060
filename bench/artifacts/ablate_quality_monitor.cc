/**
 * @file
 * Ablation: the runtime quality monitor (DESIGN.md AB3).
 * Over-truncating a benchmark's inputs makes LUT hits return badly
 * wrong values; with the monitor on, sampled-hit verification trips the
 * kill switch and output quality is rescued at the cost of the speedup;
 * with it off, the error lands in the output. Normal Table 2 truncation
 * must never trip the monitor (the paper observes zero trips).
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

constexpr const char *kSubset[] = {"inversek2j", "sobel", "srad"};

struct Setting
{
    int trunc; // -1 = Table 2 defaults
    bool monitor;
};

constexpr Setting kSettings[] = {
    {-1, true},  // normal operation: must not trip
    {21, false}, // heavy over-truncation, unprotected
    {21, true},  // heavy over-truncation, protected
};

class AblateQualityMonitorArtifact final : public Artifact
{
  public:
    std::string
    name() const override
    {
        return "ablate_quality_monitor";
    }
    std::string
    title() const override
    {
        return "Ablation AB3: quality monitor kill switch";
    }
    std::string
    description() const override
    {
        return "quality-monitor kill switch under normal and "
               "over-truncated operation";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        for (const char *name : kSubset) {
            for (const Setting &s : kSettings) {
                ExperimentConfig config = defaultConfig();
                config.truncOverride = s.trunc;
                config.qualityMonitor = s.monitor;
                engine.enqueueCompare(name, "axmemo", config);
            }
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "trunc", "monitor", "tripped",
                      "speedup", "quality loss"});

        std::size_t next = 0;
        for (const char *name : kSubset) {
            for (const Setting &s : kSettings) {
                const Comparison &cmp = outcomes[next++].cmp;
                const bool tripped =
                    cmp.subject.stats.memo.monitorTripped;
                table.row({name,
                           s.trunc < 0 ? "Table2"
                                       : std::to_string(s.trunc),
                           s.monitor ? "on" : "off",
                           tripped ? "yes" : "no",
                           TextTable::times(cmp.speedup),
                           TextTable::percent(cmp.qualityLoss, 3)});
            }
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "expectation: row 1 never trips (paper: no execution "
                "disabled memoization); over-truncation without the "
                "monitor corrupts quality; with it, quality is rescued "
                "and the speedup collapses toward 1x\n");
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(42, AblateQualityMonitorArtifact)

} // namespace
} // namespace axmemo::bench
