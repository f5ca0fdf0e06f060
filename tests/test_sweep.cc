/**
 * @file
 * Tests of the parallel sweep engine: parallel execution must be
 * bit-identical to serial per-job ExperimentRunner evaluation, cached
 * baselines must equal freshly simulated ones, the thread pool must
 * behave deterministically, and the env-driven worker count must parse
 * defensively.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "common/runtime_options.hh"
#include "common/thread_pool.hh"
#include "core/sweep.hh"

namespace axmemo {
namespace {

ExperimentConfig
tinyConfig()
{
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    config.lut = {8 * 1024, 512 * 1024};
    return config;
}

/** The three configurations of the sweep-matrix tests. */
std::vector<ExperimentConfig>
threeConfigs()
{
    std::vector<ExperimentConfig> configs;
    configs.push_back(tinyConfig());
    ExperimentConfig small = tinyConfig();
    small.lut = {4 * 1024, 0};
    configs.push_back(small);
    ExperimentConfig wide = tinyConfig();
    wide.cpu.issueWidth = 4;
    configs.push_back(wide);
    return configs;
}

void
expectRunsIdentical(const RunResult &a, const RunResult &b,
                    const std::string &what)
{
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << what;
    EXPECT_EQ(a.stats.macroInsts, b.stats.macroInsts) << what;
    EXPECT_EQ(a.stats.uops, b.stats.uops) << what;
    EXPECT_EQ(a.lookups, b.lookups) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_DOUBLE_EQ(a.energyPj(), b.energyPj()) << what;
    // A Comparison keeps its runs without outputs, so the digest is the
    // output check that always applies; the values too when both hold
    // them.
    EXPECT_EQ(a.outputsDigest, b.outputsDigest) << what;
    if (a.outputs.empty() || b.outputs.empty())
        return;
    ASSERT_EQ(a.outputs.size(), b.outputs.size()) << what;
    for (std::size_t i = 0; i < a.outputs.size(); ++i)
        ASSERT_EQ(a.outputs[i], b.outputs[i]) << what << " output " << i;
}

TEST(Sweep, ParallelMatchesSerialAcrossMatrix)
{
    // The satellite acceptance matrix: 10 workloads x 3 configurations,
    // run through a 4-worker engine and compared against direct serial
    // ExperimentRunner::run() calls.
    const std::vector<ExperimentConfig> configs = threeConfigs();

    SweepEngine engine(4);
    for (const std::string &name : workloadNames())
        for (const ExperimentConfig &config : configs)
            engine.enqueueRun(name, "axmemo", config);
    const std::vector<SweepOutcome> outcomes = engine.execute();
    ASSERT_EQ(outcomes.size(), workloadNames().size() * configs.size());

    std::size_t next = 0;
    for (const std::string &name : workloadNames()) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            auto workload = makeWorkload(name);
            const RunResult serial = ExperimentRunner(configs[c])
                                         .run(*workload, "axmemo");
            expectRunsIdentical(outcomes[next++].run, serial,
                                name + " config " + std::to_string(c));
        }
    }
    EXPECT_EQ(engine.metrics().jobs, outcomes.size());
    EXPECT_EQ(engine.metrics().preparedPrograms,
              workloadNames().size());
}

TEST(Sweep, CachedBaselineEqualsFresh)
{
    // Many scored jobs against one (workload, dataset, cpu, hierarchy)
    // key: the baseline must be simulated exactly once, and the cached
    // result must be bit-identical to a fresh serial baseline run.
    SweepEngine engine(3);
    ExperimentConfig config = tinyConfig();
    engine.enqueueCompare("blackscholes", "axmemo", config);
    ExperimentConfig small = config;
    small.lut = {4 * 1024, 0};
    engine.enqueueCompare("blackscholes", "axmemo", small);
    engine.enqueueCompare("blackscholes", "software-lut", config);
    engine.enqueueRun("blackscholes", "baseline", config);
    const std::vector<SweepOutcome> outcomes = engine.execute();

    EXPECT_EQ(engine.metrics().baselineRequests, 4u);
    EXPECT_EQ(engine.metrics().baselineSimulations, 1u);

    auto workload = makeWorkload("blackscholes");
    const RunResult fresh =
        ExperimentRunner(config).run(*workload, "baseline");
    expectRunsIdentical(outcomes[3].run, fresh, "cached baseline");
    for (int i = 0; i < 3; ++i)
        expectRunsIdentical(outcomes[i].cmp.baseline, fresh,
                            "scored-job baseline " + std::to_string(i));

    // The scored comparisons must match serial compare() exactly.
    auto serialWorkload = makeWorkload("blackscholes");
    const Comparison serial =
        ExperimentRunner(small).compare(*serialWorkload, "axmemo");
    EXPECT_DOUBLE_EQ(outcomes[1].cmp.speedup, serial.speedup);
    EXPECT_DOUBLE_EQ(outcomes[1].cmp.energyReduction,
                     serial.energyReduction);
    EXPECT_DOUBLE_EQ(outcomes[1].cmp.qualityLoss, serial.qualityLoss);
}

TEST(Sweep, DistinctCpuConfigsGetDistinctBaselines)
{
    SweepEngine engine(2);
    ExperimentConfig inOrder = tinyConfig();
    ExperimentConfig ooo = tinyConfig();
    ooo.cpu.outOfOrder = true;
    ooo.cpu.robSize = 64;
    engine.enqueueCompare("fft", "axmemo", inOrder);
    engine.enqueueCompare("fft", "axmemo", ooo);
    const std::vector<SweepOutcome> outcomes = engine.execute();

    EXPECT_EQ(engine.metrics().baselineSimulations, 2u);
    EXPECT_NE(outcomes[0].cmp.baseline.stats.cycles,
              outcomes[1].cmp.baseline.stats.cycles);
}

TEST(Sweep, CachesPersistAcrossExecutes)
{
    SweepEngine engine(2);
    engine.enqueueCompare("sobel", "axmemo", tinyConfig());
    const std::vector<SweepOutcome> first = engine.execute();
    EXPECT_EQ(engine.metrics().baselineSimulations, 1u);

    engine.enqueueCompare("sobel", "software-lut", tinyConfig());
    const std::vector<SweepOutcome> second = engine.execute();
    EXPECT_EQ(engine.metrics().baselineSimulations, 0u);
    EXPECT_EQ(engine.metrics().preparedPrograms, 0u);
    expectRunsIdentical(second[0].cmp.baseline, first[0].cmp.baseline,
                        "baseline reused across execute() calls");
}

TEST(Sweep, SingleWorkerEngineIsSerial)
{
    SweepEngine engine(1);
    EXPECT_EQ(engine.workers(), 1u);
    engine.enqueueRun("kmeans", "axmemo", tinyConfig());
    const std::vector<SweepOutcome> outcomes = engine.execute();

    auto workload = makeWorkload("kmeans");
    const RunResult serial =
        ExperimentRunner(tinyConfig()).run(*workload, "axmemo");
    expectRunsIdentical(outcomes[0].run, serial, "single worker");
    EXPECT_GE(engine.metrics().wallSeconds, 0.0);
    EXPECT_GT(engine.metrics().simulatedMacroInsts, 0u);
}

TEST(ThreadPool, ParallelForCoversAllIndicesOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(8, hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, InlineWhenSingleThreaded)
{
    // threads=1 must execute inline, in order, on the calling thread.
    std::vector<std::size_t> order;
    parallelFor(1, 16, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, JobsFromEnvParsesDefensively)
{
    const char *old = std::getenv("AXMEMO_JOBS");
    const std::string saved = old ? old : "";

    setenv("AXMEMO_JOBS", "3", 1);
    EXPECT_EQ(RuntimeOptions::global().workerCount(), 3u);
    setenv("AXMEMO_JOBS", "1", 1);
    EXPECT_EQ(RuntimeOptions::global().workerCount(), 1u);

    // Malformed or out-of-range values fall back, never crash.
    for (const char *bad : {"abc", "3x", "", "-2", "0", "99999"}) {
        setenv("AXMEMO_JOBS", bad, 1);
        EXPECT_GE(RuntimeOptions::global().workerCount(), 1u) << bad;
    }

    if (old)
        setenv("AXMEMO_JOBS", saved.c_str(), 1);
    else
        unsetenv("AXMEMO_JOBS");
}

} // namespace
} // namespace axmemo
