/**
 * @file
 * Validation of the compiler's analytic speedup estimator (Fig. 5 step
 * 3) against the cycle simulator: per benchmark, the DDDG-based
 * estimate (using the measured distinct-pattern counts as the reuse
 * hint) next to the simulated speedup at the best LUT configuration.
 * The paper's caveat — DDDG weights ignore superscalar overlap, so
 * coverage "does not always directly translate" — shows up as
 * optimistic estimates; what matters is that the *ranking* is right,
 * since that is what the candidate search keys on.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class EstimatorValidationArtifact final : public Artifact
{
  public:
    std::string name() const override { return "estimator_validation"; }
    std::string
    title() const override
    {
        return "Estimator validation: DDDG-predicted vs simulated "
               "speedup";
    }
    std::string
    description() const override
    {
        return "analytic speedup estimates from the DDDG versus the "
               "cycle simulator, checking the estimator's ranking";
    }

    void
    enqueue(SweepEngine &) override
    {
        // The per-benchmark flow (trace -> DDDG -> estimate ->
        // simulate) is self-contained, so each runs whole on one
        // worker rather than through the sweep engine.
        const std::vector<std::string> names = workloadNames();
        predictions_.assign(names.size(), 0.0);
        coverages_.assign(names.size(), 0.0);
        comparisons_.assign(names.size(), {});
        parallelFor(
            RuntimeOptions::global().workerCount(), names.size(),
            [&](std::size_t i) {
                auto workload = makeWorkload(names[i]);

                // Trace + DDDG on the sample set (compiler's view).
                SimMemory mem;
                WorkloadParams params;
                params.scale = std::min(
                    0.02, RuntimeOptions::global().benchScale());
                params.sampleSet = true;
                workload->prepare(mem, params);
                const Program prog = workload->build();
                TraceBuffer buffer(1u << 18);
                Simulator sim(prog, mem, {});
                sim.setTraceBuffer(&buffer);
                sim.run();
                const Dddg graph(prog, buffer.entries());
                const RegionAnalysis analysis =
                    RegionFinder().analyze(graph);

                // Reuse hint: the measured unique-key count of a real
                // memoized run at the same scale (what profiling would
                // provide).
                ExperimentConfig config = defaultConfig();
                config.dataset = params;
                const RunResult run = ExperimentRunner(config).run(
                    *workload, "axmemo");
                // The profiled reuse *ratio* (misses per lookup)
                // transfers to each subgraph's instance count.
                const double missRatio =
                    run.lookups
                        ? static_cast<double>(run.stats.memo.misses) /
                              static_cast<double>(run.lookups)
                        : 1.0;

                const SpeedupEstimator estimator;
                std::vector<std::uint64_t> hints;
                hints.reserve(analysis.unique.size());
                for (const UniqueSubgraph &subgraph : analysis.unique)
                    hints.push_back(std::max<std::uint64_t>(
                        1,
                        static_cast<std::uint64_t>(
                            missRatio *
                            static_cast<double>(
                                subgraph.dynamicCount))));
                predictions_[i] = estimator.estimateProgram(
                    analysis, graph.totalWeight(), hints);
                coverages_[i] = analysis.coverage;

                comparisons_[i] = ExperimentRunner(config).compare(
                    *workload, "axmemo");
            });
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &) override
    {
        TextTable table;
        table.header({"benchmark", "predicted", "simulated", "ratio",
                      "coverage"});

        const std::vector<std::string> names = workloadNames();
        for (std::size_t i = 0; i < names.size(); ++i) {
            table.row({names[i], TextTable::times(predictions_[i]),
                       TextTable::times(comparisons_[i].speedup),
                       TextTable::num(predictions_[i] /
                                      comparisons_[i].speedup),
                       TextTable::percent(coverages_[i])});
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "expectation: predictions are optimistic (DDDG ignores "
                "ILP and non-covered overheads) but rank the "
                "benchmarks like the simulator does\n");
        return result;
    }

  private:
    std::vector<double> predictions_;
    std::vector<double> coverages_;
    std::vector<Comparison> comparisons_;
};

AXMEMO_REGISTER_ARTIFACT(32, EstimatorValidationArtifact)

} // namespace
} // namespace axmemo::bench
