/**
 * @file
 * Table 1: dynamic-data-dependence-graph analysis of every benchmark. A
 * bounded dynamic trace of each baseline program (on the *sample* input
 * set, as the compiler flow requires) feeds the DDDG builder; the
 * region finder then runs the transpose-BFS candidate search,
 * deduplicates by static signature, and reports the total number of
 * dynamic subgraphs, unique subgraphs, average Compute-to-Input ratio,
 * and memoization coverage.
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class Table1Artifact final : public Artifact
{
  public:
    std::string name() const override { return "table1"; }
    std::string
    title() const override
    {
        return "Table 1: DDDG candidate-subgraph analysis";
    }
    std::string
    description() const override
    {
        return "DDDG candidate-subgraph statistics per benchmark "
               "(dynamic/unique subgraphs, CI ratio, coverage)";
    }

    void
    enqueue(SweepEngine &) override
    {
        // The trace + DDDG analysis does not go through the sweep
        // engine; each benchmark is independent, so run them across the
        // AXMEMO_JOBS worker count with a reusable per-run TraceBuffer
        // instead of the allocation-per-entry hook path.
        const std::vector<std::string> names = workloadNames();
        analyses_.assign(names.size(), {});
        parallelFor(RuntimeOptions::global().workerCount(), names.size(),
                    [&](std::size_t i) {
                        auto workload = makeWorkload(names[i]);

                        // Small sample dataset: the analysis needs loop
                        // structure, not volume.
                        SimMemory mem;
                        WorkloadParams params;
                        params.scale = std::min(
                            0.01,
                            RuntimeOptions::global().benchScale());
                        params.sampleSet = true;
                        workload->prepare(mem, params);
                        const Program prog = workload->build();

                        TraceBuffer buffer(1u << 18);
                        Simulator sim(prog, mem, {});
                        sim.setTraceBuffer(&buffer);
                        sim.run();

                        const Dddg graph(prog, buffer.entries());
                        analyses_[i] = RegionFinder().analyze(graph);
                    });
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &) override
    {
        TextTable table;
        table.header({"benchmark", "dynamic subgraphs",
                      "unique subgraphs", "avg CI_Ratio", "coverage"});

        const std::vector<std::string> names = workloadNames();
        for (std::size_t i = 0; i < names.size(); ++i) {
            const RegionAnalysis &analysis = analyses_[i];
            table.row({names[i],
                       std::to_string(analysis.totalDynamicSubgraphs),
                       std::to_string(analysis.unique.size()),
                       TextTable::num(analysis.avgCiRatio),
                       TextTable::percent(analysis.coverage)});
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "paper (on LLVM IR with suite datasets): e.g. "
                "blackscholes 61114/8/48.41/75.24%%, fft "
                "5376/3/43.85/93.83%%, jmeint 516/4/9.87/53.10%%\n");
        return result;
    }

  private:
    std::vector<RegionAnalysis> analyses_;
};

AXMEMO_REGISTER_ARTIFACT(10, Table1Artifact)

} // namespace
} // namespace axmemo::bench
