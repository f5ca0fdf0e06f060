/**
 * @file
 * Fig. 8: total dynamic instruction count normalized to the
 * no-memoization baseline, split into normal instructions and
 * memoization instructions (AxMemo ISA ops + the added hit/miss
 * branches; ld_crc counts as a normal load). Also prints the software
 * implementation's ~2x inflation.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class Fig8Artifact final : public Artifact
{
  public:
    std::string name() const override { return "fig8"; }
    std::string
    title() const override
    {
        return "Fig. 8: normalized dynamic instruction count";
    }
    std::string
    description() const override
    {
        return "normalized dynamic instruction count split into "
               "normal and memoization instructions";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        for (const std::string &name : workloadNames()) {
            ExperimentConfig smallCfg = defaultConfig();
            smallCfg.lut = {4 * 1024, 0};
            engine.enqueueCompare(name, "axmemo", smallCfg);
            ExperimentConfig bigCfg = defaultConfig();
            bigCfg.lut = bestLutConfig();
            engine.enqueueCompare(name, "axmemo", bigCfg);
            engine.enqueueCompare(name, "software-lut",
                                  defaultConfig());
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "L1(4KB) norm", "L1(4KB) memo",
                      "L1(8KB)+L2(512KB) norm",
                      "L1(8KB)+L2(512KB) memo", "software total"});

        std::vector<double> smallTotals;
        std::vector<double> bigTotals;
        std::vector<double> swTotals;

        std::size_t next = 0;
        for (const std::string &name : workloadNames()) {
            const Comparison &small = outcomes[next++].cmp;
            const Comparison &big = outcomes[next++].cmp;
            const Comparison &sw = outcomes[next++].cmp;

            table.row({name,
                       TextTable::percent(small.normalizedUops -
                                          small.memoUopShare),
                       TextTable::percent(small.memoUopShare),
                       TextTable::percent(big.normalizedUops -
                                          big.memoUopShare),
                       TextTable::percent(big.memoUopShare),
                       TextTable::percent(sw.normalizedUops)});
            smallTotals.push_back(small.normalizedUops);
            bigTotals.push_back(big.normalizedUops);
            swTotals.push_back(sw.normalizedUops);
        }

        table.row({"average",
                   TextTable::percent(arithmeticMean(smallTotals)),
                   "-", TextTable::percent(arithmeticMean(bigTotals)),
                   "-", TextTable::percent(arithmeticMean(swTotals))});

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "paper: 20.0%% / 50.1%% average reduction for L1(4KB) /"
                " L1(8KB)+L2(512KB); software ~2x increase\n");
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(21, Fig8Artifact)

} // namespace
} // namespace axmemo::bench
