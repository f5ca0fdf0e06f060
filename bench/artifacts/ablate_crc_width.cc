/**
 * @file
 * Ablation: CRC width (DESIGN.md AB1). The paper asserts that a 32-bit
 * CRC is "generally large enough to avoid collision" (Section 6). This
 * artifact sweeps the hash width on a representative subset: narrow
 * CRCs alias distinct inputs onto the same tag, which shows up as
 * inflated hit rates and degraded output quality; wide CRCs buy nothing
 * further. The hardware cost of each width is printed alongside.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

constexpr unsigned kWidths[] = {8, 16, 24, 32, 64};
constexpr const char *kSubset[] = {"blackscholes", "sobel", "kmeans",
                                   "inversek2j"};

class AblateCrcWidthArtifact final : public Artifact
{
  public:
    std::string name() const override { return "ablate_crc_width"; }
    std::string
    title() const override
    {
        return "Ablation AB1: CRC width vs hit rate / quality / cost";
    }
    std::string
    description() const override
    {
        return "hash-width sweep showing collision damage below 24 "
               "bits and the hardware cost of each width";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        for (const char *name : kSubset) {
            for (unsigned width : kWidths) {
                ExperimentConfig config = defaultConfig();
                config.crcBits = width;
                // Disable the kill switch so collision damage is
                // visible.
                config.qualityMonitor = false;
                engine.enqueueCompare(name, "axmemo", config);
            }
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "width", "hit rate", "quality loss",
                      "speedup", "crc area (mm^2)"});

        std::size_t next = 0;
        for (const char *name : kSubset) {
            for (unsigned width : kWidths) {
                const Comparison &cmp = outcomes[next++].cmp;
                CrcHwConfig hw;
                hw.width = width;
                table.row({name, std::to_string(width),
                           TextTable::percent(cmp.subject.hitRate()),
                           TextTable::percent(cmp.qualityLoss, 3),
                           TextTable::times(cmp.speedup),
                           TextTable::num(CrcHwModel(hw).areaMm2(),
                                          4)});
            }
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "expectation: quality degrades sharply below 24 bits "
                "(collisions return wrong entries); 32 vs 64 bits is "
                "indistinguishable, matching the paper's choice\n");
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(40, AblateCrcWidthArtifact)

} // namespace
} // namespace axmemo::bench
