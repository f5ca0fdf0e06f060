/**
 * @file
 * Report-formatting tests: the stats dump and comparison summary must
 * surface the key counters and stay consistent with the underlying run.
 */

#include <gtest/gtest.h>

#include "core/report.hh"

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

TEST(Report, RunReportContainsKeySections)
{
    auto workload = makeWorkload("blackscholes");
    const ExperimentConfig config = tinyConfig();
    const RunResult r =
        ExperimentRunner(config).run(*workload, "axmemo");
    const std::string report = formatRunReport(r, config);

    for (const char *needle :
         {"cycles", "uops", "ipc", "l1d_hits", "dram_reads",
          "memoization unit", "hit_rate", "total_uj", "region 1",
          "fused_loads"}) {
        EXPECT_NE(report.find(needle), std::string::npos)
            << "missing " << needle << " in:\n"
            << report;
    }
}

TEST(Report, BaselineReportOmitsMemoSection)
{
    auto workload = makeWorkload("fft");
    const ExperimentConfig config = tinyConfig();
    const RunResult r =
        ExperimentRunner(config).run(*workload, "baseline");
    const std::string report = formatRunReport(r, config);
    EXPECT_EQ(report.find("memoization unit"), std::string::npos);
    EXPECT_NE(report.find("cycles"), std::string::npos);
}

TEST(Report, SoftwareReportShowsCounters)
{
    auto workload = makeWorkload("fft");
    const ExperimentConfig config = tinyConfig();
    const RunResult r =
        ExperimentRunner(config).run(*workload, "software-lut");
    const std::string report = formatRunReport(r, config);
    EXPECT_NE(report.find("software memoization"), std::string::npos);
}

TEST(Report, ComparisonSummary)
{
    auto workload = makeWorkload("sobel");
    const Comparison cmp =
        ExperimentRunner(tinyConfig()).compare(*workload, "axmemo");
    const std::string report = formatComparison(cmp, *workload);
    EXPECT_NE(report.find("speedup"), std::string::npos);
    EXPECT_NE(report.find("sobel"), std::string::npos);
    EXPECT_NE(report.find("Equation 2"), std::string::npos);
}

TEST(Report, MisclassificationLabelled)
{
    auto workload = makeWorkload("jmeint");
    const Comparison cmp =
        ExperimentRunner(tinyConfig()).compare(*workload, "axmemo");
    const std::string report = formatComparison(cmp, *workload);
    EXPECT_NE(report.find("misclassification"), std::string::npos);
}

} // namespace
} // namespace axmemo
