/**
 * @file
 * Table 2: the benchmark roster with each workload's domain, dataset,
 * measured memoization-input size (from the applied transform), and the
 * truncation level — both Table 2's shipped default and the level the
 * profile-driven tuner re-derives on the sample input set under the
 * paper's error bounds (0.1%, or 1% for image outputs).
 */

#include "bench/artifacts/artifacts.hh"

namespace axmemo::bench {
namespace {

class Table2Artifact final : public Artifact
{
  public:
    std::string name() const override { return "table2"; }
    std::string
    title() const override
    {
        return "Table 2: evaluated benchmarks and truncation levels";
    }
    std::string
    description() const override
    {
        return "benchmark roster with domains, datasets, memo input "
               "sizes and shipped vs tuner-derived truncation levels";
    }

    void
    enqueue(SweepEngine &engine) override
    {
        for (const std::string &name : workloadNames())
            engine.enqueueRun(name, "axmemo", defaultConfig());
        workers_ = engine.workers();
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) override
    {
        TextTable table;
        table.header({"benchmark", "domain", "dataset",
                      "memo input (bytes)", "trunc bits (Table 2)",
                      "trunc bits (tuner)"});

        const std::vector<std::string> names = workloadNames();

        // Tuner column: each benchmark's profile-driven re-derivation
        // is an independent serial search, so spread them across the
        // same worker count the engine used.
        std::vector<TuningResult> tuned(names.size());
        parallelFor(workers_, names.size(), [&](std::size_t i) {
            auto workload = makeWorkload(names[i]);
            ExperimentConfig tunerConfig = defaultConfig();
            tunerConfig.dataset.scale =
                std::max(0.01, tunerConfig.dataset.scale / 4.0);
            const double bound =
                workload->imageOutput() ? 0.01 : 0.001;
            TruncationTuner tuner(tunerConfig, bound);
            tuned[i] = tuner.tune(*workload);
        });

        for (std::size_t i = 0; i < names.size(); ++i) {
            const std::string &name = names[i];
            auto workload = makeWorkload(name);
            {
                // memoSpec() needs a built program behind it (register
                // assignments); a sample-set build is enough and cheap.
                SimMemory scratch;
                WorkloadParams params;
                params.scale = 0.01;
                params.sampleSet = true;
                workload->prepare(scratch, params);
                workload->build();
            }

            // Input sizes come from the transform applied to the real
            // program.
            const RunResult &r = outcomes[i].run;

            std::string inputBytes;
            std::string tableTrunc;
            {
                // Distinct logical LUTs -> "(a, b)" style like the
                // paper.
                std::map<LutId, unsigned> bytesPerLut;
                for (const auto &region : r.regions)
                    bytesPerLut[region.lut] = region.inputBytes;
                for (const auto &[lut, bytes] : bytesPerLut) {
                    if (!inputBytes.empty())
                        inputBytes += ", ";
                    inputBytes += std::to_string(bytes);
                }
                std::map<LutId, unsigned> truncPerLut;
                for (const auto &spec : workload->memoSpec().regions)
                    truncPerLut[spec.lut] = spec.truncBits;
                for (const auto &[lut, bits] : truncPerLut) {
                    if (!tableTrunc.empty())
                        tableTrunc += ", ";
                    tableTrunc += std::to_string(bits);
                }
            }

            table.row({name, workload->domain(),
                       workload->datasetDescription(), inputBytes,
                       tableTrunc,
                       std::to_string(tuned[i].chosenBits)});
        }

        ArtifactResult result;
        appendf(result.text, "%s\n", table.render().c_str());
        appendf(result.text,
                "paper truncation column: 0, 0, 8, 6, (2,7), 16, 16, "
                "8, 0, 18\n");
        return result;
    }

  private:
    unsigned workers_ = 1;
};

AXMEMO_REGISTER_ARTIFACT(11, Table2Artifact)

} // namespace
} // namespace axmemo::bench
