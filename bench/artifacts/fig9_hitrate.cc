/**
 * @file
 * Fig. 9: total LUT hit rate (across both LUT levels) for every
 * benchmark under the four AxMemo configurations plus the software LUT
 * implementation.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class Fig9Artifact final : public Artifact
{
  public:
    std::string name() const override { return "fig9"; }
    std::string
    title() const override
    {
        return "Fig. 9: LUT hit rate by configuration";
    }
    std::string
    description() const override
    {
        return "LUT hit rate per benchmark under the four AxMemo "
               "configurations and the software LUT";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        luts_ = standardLutConfigs();
        for (const std::string &name : workloadNames()) {
            for (const auto &lut : luts_) {
                ExperimentConfig config = defaultConfig();
                config.lut = lut;
                engine.enqueueRun(name, "axmemo", config);
            }
            engine.enqueueRun(name, "software-lut",
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

        std::vector<std::vector<double>> rates(luts_.size() + 1);

        std::size_t next = 0;
        for (const std::string &name : workloadNames()) {
            std::vector<std::string> row{name};
            for (std::size_t column = 0; column < rates.size();
                 ++column) {
                const RunResult &r = outcomes[next++].run;
                row.push_back(TextTable::percent(r.hitRate()));
                rates[column].push_back(r.hitRate());
            }
            table.row(row);
        }

        std::vector<std::string> meanRow{"average"};
        for (const auto &column : rates)
            meanRow.push_back(
                TextTable::percent(arithmeticMean(column)));
        table.row(meanRow);

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "paper: 37.1%% average for L1(4KB), 76.1%% for "
                "L1(8KB)+L2(512KB), 81.1%% software\n");
        return result;
    }

  private:
    std::vector<LutSetup> luts_;
};

AXMEMO_REGISTER_ARTIFACT(22, Fig9Artifact)

} // namespace
} // namespace axmemo::bench
