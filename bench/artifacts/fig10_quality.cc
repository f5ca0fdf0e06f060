/**
 * @file
 * Fig. 10: (a) whole-application output quality loss (Equation 2;
 * misclassification for Jmeint) under every AxMemo configuration and
 * the software LUT, and (b) the cumulative distribution of element-wise
 * relative error for the L1(8KB)+L2(512KB) configuration.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class Fig10Artifact final : public Artifact
{
  public:
    std::string name() const override { return "fig10"; }
    std::string
    title() const override
    {
        return "Fig. 10: output quality degradation";
    }
    std::string
    description() const override
    {
        return "whole-application quality loss per configuration plus "
               "the CDF of element-wise relative error";
    }

    void
    enqueue(SweepEngine &engine) override
    {
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
        TextTable table;
        {
            std::vector<std::string> head{"benchmark"};
            for (const auto &lut : luts_)
                head.push_back(lut.label());
            head.emplace_back("SoftwareLUT");
            table.header(head);
        }

        // CDF evaluation points for Fig. 10b.
        const std::vector<double> cdfPoints = {0.0,  1e-5, 1e-4, 1e-3,
                                               1e-2, 0.05, 0.10, 0.50};
        TextTable cdfTable;
        {
            std::vector<std::string> head{"benchmark"};
            for (double p : cdfPoints)
                head.push_back("<=" + TextTable::num(p, 5));
            cdfTable.header(head);
        }

        std::size_t next = 0;
        for (const std::string &name : workloadNames()) {
            std::vector<std::string> row{name};
            for (const auto &lut : luts_) {
                const Comparison &cmp = outcomes[next++].cmp;
                row.push_back(TextTable::percent(cmp.qualityLoss, 3));

                if (lut.l1Bytes == bestLutConfig().l1Bytes &&
                    lut.l2Bytes == bestLutConfig().l2Bytes) {
                    std::vector<std::string> cdfRow{name};
                    for (double frac : cmp.errorCdf.evaluate(cdfPoints))
                        cdfRow.push_back(TextTable::percent(frac, 1));
                    cdfTable.row(cdfRow);
                }
            }
            const Comparison &sw = outcomes[next++].cmp;
            row.push_back(TextTable::percent(sw.qualityLoss, 3));
            table.row(row);
        }

        ArtifactResult result;
        appendf(result.text,
                "--- Fig. 10a: whole-application quality loss ---\n%s\n",
                table.render().c_str());
        appendf(result.text,
                "--- Fig. 10b: CDF of element-wise relative error, "
                "L1(8KB)+L2(512KB) ---\n%s\n",
                cdfTable.render().c_str());
        appendf(result.text,
                "paper: average E_r below 1%% across configurations; "
                "0.2%% average quality loss headline; software has "
                "higher error from its collision rate\n");
        return result;
    }

  private:
    std::vector<LutSetup> luts_;
};

AXMEMO_REGISTER_ARTIFACT(23, Fig10Artifact)

} // namespace
} // namespace axmemo::bench
