/**
 * @file
 * Integration tests of the top-level API: the experiment runner across
 * the builtin backends, baseline reuse, the truncation tuner and the
 * L2-LUT cache partition.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hh"
#include "core/table.hh"
#include "core/truncation_tuner.hh"

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

TEST(Experiment, BlackscholesSpeedsUp)
{
    auto workload = makeWorkload("blackscholes");
    const ExperimentRunner runner(tinyConfig());
    const Comparison cmp = runner.compare(*workload, "axmemo");
    EXPECT_GT(cmp.speedup, 1.5);
    EXPECT_GT(cmp.energyReduction, 1.2);
    EXPECT_LT(cmp.normalizedUops, 0.8);
    EXPECT_LT(cmp.qualityLoss, 0.001);
    EXPECT_GT(cmp.subject.hitRate(), 0.3);
}

TEST(Experiment, JmeintDoesNot)
{
    // The designed failure case: ~0% hit rate, ~1x speedup.
    auto workload = makeWorkload("jmeint");
    const ExperimentRunner runner(tinyConfig());
    const Comparison cmp = runner.compare(*workload, "axmemo");
    EXPECT_LT(cmp.subject.hitRate(), 0.02);
    EXPECT_NEAR(cmp.speedup, 1.0, 0.15);
}

TEST(Experiment, EveryModeRuns)
{
    auto workload = makeWorkload("kmeans");
    const ExperimentRunner runner(tinyConfig());
    for (const std::string backend : {"baseline", "axmemo",
                                      "axmemo-notrunc", "software-lut",
                                      "atm"}) {
        const RunResult r = runner.run(*workload, backend);
        EXPECT_GT(r.stats.cycles, 0u) << backend;
        EXPECT_FALSE(r.outputs.empty()) << backend;
        if (backend != "baseline") {
            EXPECT_GT(r.lookups, 0u) << backend;
            EXPECT_LE(r.hits, r.lookups) << backend;
        }
    }
}

TEST(Experiment, ScoreReusesBaseline)
{
    auto workload = makeWorkload("sobel");
    const ExperimentRunner runner(tinyConfig());
    const RunResult base = runner.run(*workload, "baseline");
    const RunResult subject = runner.run(*workload, "axmemo");
    const Comparison viaScore =
        ExperimentRunner::score(*workload, base, subject);
    const Comparison direct = runner.compare(*workload, "axmemo");
    EXPECT_DOUBLE_EQ(viaScore.speedup, direct.speedup);
    EXPECT_DOUBLE_EQ(viaScore.qualityLoss, direct.qualityLoss);
}

TEST(Experiment, L2LutStealsCacheWays)
{
    // The in-LLC L2 LUT must reduce the cache capacity available to the
    // program (Section 3.3): with half the LLC partitioned away, a
    // cache-resident workload gets slower at the margin, never faster
    // by more than noise.
    auto workload = makeWorkload("hotspot");
    ExperimentConfig with = tinyConfig();
    with.lut = {8 * 1024, 512 * 1024};
    ExperimentConfig without = tinyConfig();
    without.lut = {8 * 1024, 0};

    const RunResult a =
        ExperimentRunner(with).run(*workload, "baseline");
    // Baselines don't instantiate the LUT: both must be identical.
    const RunResult b =
        ExperimentRunner(without).run(*workload, "baseline");
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
}

TEST(Experiment, SoftwareLutUsesMoreInstructions)
{
    auto workload = makeWorkload("sobel");
    const ExperimentRunner runner(tinyConfig());
    const Comparison sw = runner.compare(*workload, "software-lut");
    EXPECT_GT(sw.normalizedUops, 1.2);
}

TEST(Experiment, TruncOverrideApplies)
{
    auto workload = makeWorkload("sobel");
    ExperimentConfig none = tinyConfig();
    none.truncOverride = 0;
    ExperimentConfig heavy = tinyConfig();
    heavy.truncOverride = 20;
    heavy.qualityMonitor = false;
    const RunResult a =
        ExperimentRunner(none).run(*workload, "axmemo");
    const RunResult c =
        ExperimentRunner(heavy).run(*workload, "axmemo");
    // Heavier truncation can only merge more inputs.
    EXPECT_GE(c.hits, a.hits);
}

TEST(Experiment, TunerSweepsAndRespectsBound)
{
    auto workload = makeWorkload("inversek2j");
    TruncationTuner tuner(tinyConfig(), 0.001);
    const TuningResult result =
        tuner.tune(*workload, {0, 8, 16, 24});
    ASSERT_FALSE(result.sweep.empty());
    EXPECT_EQ(result.sweep.front().truncBits, 0u);
    EXPECT_EQ(result.sweep.front().qualityLoss, 0.0);
    // Hit rate must not decrease with truncation.
    for (std::size_t i = 1; i < result.sweep.size(); ++i)
        EXPECT_GE(result.sweep[i].hitRate + 0.02,
                  result.sweep[i - 1].hitRate);
    // The chosen level is the last one meeting the bound.
    for (const TuningPoint &point : result.sweep) {
        if (point.truncBits <= result.chosenBits) {
            EXPECT_LE(point.qualityLoss, 0.001);
        }
    }
}

TEST(TextTableTest, RendersAligned)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xx", "1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a   bbbb"), std::string::npos);
    EXPECT_NE(out.find("xx  1"), std::string::npos);
}

TEST(TextTableTest, Formatters)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::percent(0.5), "50.0%");
    EXPECT_EQ(TextTable::times(2.5), "2.50x");
}

} // namespace
} // namespace axmemo
