/**
 * @file
 * Ablation: host-core microarchitecture (DESIGN.md extension). The
 * paper evaluates an in-order HPI core but argues AxMemo also fits
 * out-of-order processors (Sections 3.2, 6.1). This artifact runs both
 * core models: the OoO baseline is faster (it hides latency itself), so
 * AxMemo's *latency* benefit shrinks — but the dynamic-instruction
 * elimination and its energy benefit survive, which is the paper's
 * central von-Neumann-overhead argument.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class AblateOooCoreArtifact final : public Artifact
{
  public:
    std::string name() const override { return "ablate_ooo_core"; }
    std::string
    title() const override
    {
        return "Ablation: AxMemo on in-order vs out-of-order cores";
    }
    std::string
    description() const override
    {
        return "AxMemo benefit on the in-order HPI core versus an "
               "out-of-order core model";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        // The two core models hash to distinct baseline-cache keys, so
        // each benchmark gets a matching in-order and out-of-order
        // baseline.
        for (const std::string &name : workloadNames()) {
            engine.enqueueCompare(name, "axmemo", defaultConfig());

            ExperimentConfig oooCfg = defaultConfig();
            oooCfg.cpu.outOfOrder = true;
            oooCfg.cpu.robSize = 64;
            engine.enqueueCompare(name, "axmemo", oooCfg);
        }
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "inorder speedup", "inorder energy",
                      "ooo speedup", "ooo energy", "ooo/io baseline"});

        std::vector<double> inOrderSpeedups, oooSpeedups;

        std::size_t next = 0;
        for (const std::string &name : workloadNames()) {
            const Comparison &io = outcomes[next++].cmp;
            const Comparison &ooo = outcomes[next++].cmp;

            const double coreGain =
                static_cast<double>(io.baseline.stats.cycles) /
                static_cast<double>(ooo.baseline.stats.cycles);

            table.row({name, TextTable::times(io.speedup),
                       TextTable::times(io.energyReduction),
                       TextTable::times(ooo.speedup),
                       TextTable::times(ooo.energyReduction),
                       TextTable::times(coreGain)});
            inOrderSpeedups.push_back(io.speedup);
            oooSpeedups.push_back(ooo.speedup);
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "geomean speedup: %.2fx in-order vs %.2fx "
                "out-of-order\n",
                geometricMean(inOrderSpeedups),
                geometricMean(oooSpeedups));
        appendf(result.text,
                "expectation: the OoO core narrows but does not erase "
                "AxMemo's benefit — eliminated instructions save front-"
                "end work on any core\n");
        return result;
    }
};

AXMEMO_REGISTER_ARTIFACT(43, AblateOooCoreArtifact)

} // namespace
} // namespace axmemo::bench
