/**
 * @file
 * Fig. 7: (a) full-application speedup and (b) energy saving for every
 * benchmark under the four AxMemo LUT configurations plus the
 * software-LUT contender, all normalized to the non-memoized
 * ARM-HPI-like baseline.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class Fig7Artifact final : public Artifact
{
  public:
    std::string name() const override { return "fig7"; }
    std::string
    title() const override
    {
        return "Fig. 7: speedup and energy saving vs LUT configuration";
    }
    std::string
    description() const override
    {
        return "speedup and energy saving per benchmark for the four "
               "AxMemo LUT configurations and the software LUT";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        // One baseline per benchmark serves every configuration (the
        // sweep engine's baseline cache enforces that).
        luts_ = standardLutConfigs();
        for (const std::string &name : workloadNames()) {
            for (const auto &lut : luts_) {
                ExperimentConfig config = defaultConfig();
                config.lut = lut;
                engine.enqueueCompare(name, "axmemo", config);
            }
            engine.enqueueCompare(name, "software-lut",
                                  defaultConfig());
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        std::vector<std::string> columns;
        for (const auto &lut : luts_)
            columns.push_back(lut.label());
        columns.emplace_back("SoftwareLUT");

        TextTable speedupTable;
        TextTable energyTable;
        {
            std::vector<std::string> head{"benchmark"};
            head.insert(head.end(), columns.begin(), columns.end());
            speedupTable.header(head);
            energyTable.header(head);
        }

        std::vector<std::vector<double>> speedups(columns.size());
        std::vector<std::vector<double>> energies(columns.size());

        std::size_t next = 0;
        for (const std::string &name : workloadNames()) {
            std::vector<std::string> srow{name};
            std::vector<std::string> erow{name};
            for (std::size_t column = 0; column < columns.size();
                 ++column) {
                const Comparison &cmp = outcomes[next++].cmp;
                srow.push_back(TextTable::times(cmp.speedup));
                erow.push_back(TextTable::times(cmp.energyReduction));
                speedups[column].push_back(cmp.speedup);
                energies[column].push_back(cmp.energyReduction);
            }
            speedupTable.row(srow);
            energyTable.row(erow);
        }

        std::vector<std::string> sMean{"geomean"};
        std::vector<std::string> eMean{"geomean"};
        for (std::size_t c = 0; c < columns.size(); ++c) {
            sMean.push_back(
                TextTable::times(geometricMean(speedups[c])));
            eMean.push_back(
                TextTable::times(geometricMean(energies[c])));
        }
        speedupTable.row(sMean);
        energyTable.row(eMean);

        ArtifactResult result;
        appendf(result.text,
                "--- Fig. 7a: speedup over baseline ---\n%s\n",
                speedupTable.render().c_str());
        appendf(result.text,
                "--- Fig. 7b: energy saving (E_base / E_axmemo) ---\n%s",
                energyTable.render().c_str());
        return result;
    }

  private:
    std::vector<LutSetup> luts_;
};

AXMEMO_REGISTER_ARTIFACT(20, Fig7Artifact)

} // namespace
} // namespace axmemo::bench
