/**
 * @file
 * Fig. 11: effectiveness of input approximation. Speedup and energy
 * saving of AxMemo with Table 2's truncation versus AxMemo with
 * truncation disabled, both on the L1(8KB)+L2(512KB) configuration,
 * plus the hit-rate collapse that drives the difference.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class Fig11Artifact final : public Artifact
{
  public:
    std::string name() const override { return "fig11"; }
    std::string
    title() const override
    {
        return "Fig. 11: AxMemo with vs without input truncation";
    }
    std::string
    description() const override
    {
        return "speedup, energy saving and hit rate with truncation "
               "enabled versus disabled";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        for (const std::string &name : workloadNames()) {
            engine.enqueueCompare(name, "axmemo", defaultConfig());
            engine.enqueueCompare(name, "axmemo-notrunc",
                                  defaultConfig());
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "speedup (trunc)",
                      "speedup (no trunc)", "energy (trunc)",
                      "energy (no trunc)", "hit (trunc)",
                      "hit (no trunc)"});

        std::vector<double> hitWith;
        std::vector<double> hitWithout;
        std::vector<double> speedGain;
        std::vector<double> energyGain;

        std::size_t next = 0;
        for (const std::string &name : workloadNames()) {
            const Comparison &with = outcomes[next++].cmp;
            const Comparison &without = outcomes[next++].cmp;

            table.row({name, TextTable::times(with.speedup),
                       TextTable::times(without.speedup),
                       TextTable::times(with.energyReduction),
                       TextTable::times(without.energyReduction),
                       TextTable::percent(with.subject.hitRate()),
                       TextTable::percent(without.subject.hitRate())});

            hitWith.push_back(with.subject.hitRate());
            hitWithout.push_back(without.subject.hitRate());
            speedGain.push_back(with.speedup / without.speedup);
            energyGain.push_back(with.energyReduction /
                                 without.energyReduction);
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "approximation improves speedup by %.1f%% and energy by "
                "%.1f%% on average; hit rate %.1f%% -> %.1f%% without "
                "truncation\n",
                100.0 * (arithmeticMean(speedGain) - 1.0),
                100.0 * (arithmeticMean(energyGain) - 1.0),
                100.0 * arithmeticMean(hitWith),
                100.0 * arithmeticMean(hitWithout));
        appendf(result.text,
                "paper: +14.1%% speedup / +17.4%% energy on average; "
                "hit rate drops 76.1%% -> 47.2%%; JPEG, Sobel and SRAD "
                "lose their wins without approximation\n");
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(24, Fig11Artifact)

} // namespace
} // namespace axmemo::bench
