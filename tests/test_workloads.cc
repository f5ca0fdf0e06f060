/**
 * @file
 * Workload tests, parameterized across all ten benchmarks: programs
 * build and verify, baseline runs are deterministic, the memoization
 * spec matches hinted regions, Table 2's input sizes are honored, and
 * memoization without truncation is functionally exact.
 */

#include <gtest/gtest.h>

#include "compiler/transform.hh"
#include "core/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace axmemo {
namespace {

constexpr double kTinyScale = 0.01;

WorkloadParams
tinyParams()
{
    WorkloadParams params;
    params.scale = kTinyScale;
    return params;
}

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, MetadataIsComplete)
{
    auto workload = makeWorkload(GetParam());
    EXPECT_EQ(workload->name(), GetParam());
    EXPECT_FALSE(workload->domain().empty());
    EXPECT_FALSE(workload->description().empty());
    EXPECT_FALSE(workload->datasetDescription().empty());
}

TEST_P(WorkloadTest, ProgramBuildsAndVerifies)
{
    auto workload = makeWorkload(GetParam());
    SimMemory mem;
    workload->prepare(mem, tinyParams());
    const Program prog = workload->build();
    EXPECT_GT(prog.size(), 10);
    prog.verify(); // throws on failure
}

TEST_P(WorkloadTest, SpecRegionsExistInProgram)
{
    auto workload = makeWorkload(GetParam());
    SimMemory mem;
    workload->prepare(mem, tinyParams());
    const Program prog = workload->build();
    const MemoSpec spec = workload->memoSpec();
    ASSERT_FALSE(spec.regions.empty());
    for (const auto &region : spec.regions) {
        ASSERT_TRUE(prog.regions().count(region.regionId))
            << "missing region " << region.regionId;
        EXPECT_GT(prog.regions().at(region.regionId).length(), 0);
    }
    for (const auto &[marker, luts] : spec.invalidateAt) {
        EXPECT_TRUE(prog.regions().count(marker));
        EXPECT_FALSE(luts.empty());
    }
}

TEST_P(WorkloadTest, BaselineRunsAndProducesOutputs)
{
    auto workload = makeWorkload(GetParam());
    SimMemory mem;
    workload->prepare(mem, tinyParams());
    const Program prog = workload->build();
    Simulator sim(prog, mem, {});
    const SimStats &stats = sim.run();
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.macroInsts, 100u);

    const std::vector<double> outputs = workload->readOutputs(mem);
    EXPECT_FALSE(outputs.empty());
    // Outputs must not be all-zero (the program actually computed).
    double magnitude = 0;
    for (double v : outputs)
        magnitude += std::abs(v);
    EXPECT_GT(magnitude, 0.0);
}

TEST_P(WorkloadTest, DeterministicAcrossRuns)
{
    auto run = [&] {
        auto workload = makeWorkload(GetParam());
        SimMemory mem;
        workload->prepare(mem, tinyParams());
        const Program prog = workload->build();
        Simulator sim(prog, mem, {});
        sim.run();
        return std::make_pair(sim.stats().cycles,
                              workload->readOutputs(mem));
    };
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
}

TEST_P(WorkloadTest, SampleSetDiffersFromEvaluationSet)
{
    auto workload = makeWorkload(GetParam());
    SimMemory evalMem;
    workload->prepare(evalMem, tinyParams());

    auto sample = makeWorkload(GetParam());
    WorkloadParams params = tinyParams();
    params.sampleSet = true;
    SimMemory sampleMem;
    sample->prepare(sampleMem, params);

    // Compare a window of the dataset region; disjoint sets must differ
    // somewhere.
    bool differs = false;
    for (Addr a = 0x10000; a < 0x10000 + 4096 && !differs; a += 4)
        differs = evalMem.read32(a) != sampleMem.read32(a);
    EXPECT_TRUE(differs);
}

TEST_P(WorkloadTest, TransformAppliesAndReportsInputs)
{
    auto workload = makeWorkload(GetParam());
    SimMemory mem;
    workload->prepare(mem, tinyParams());
    const Program prog = workload->build();
    const TransformResult tr =
        MemoTransform::apply(prog, workload->memoSpec());
    ASSERT_FALSE(tr.regions.empty());
    for (const auto &region : tr.regions) {
        EXPECT_GT(region.numInputs, 0u);
        EXPECT_GT(region.inputBytes, 0u);
        EXPECT_LE(region.inputBytes, 40u);
        EXPECT_GE(region.numOutputs, 1u);
        EXPECT_LE(region.numOutputs, 2u);
    }
}

TEST_P(WorkloadTest, MemoizationWithoutTruncationIsExact)
{
    // Trunc-0 memoization only hits on bit-identical inputs, so outputs
    // must be identical to the baseline (CRC32 collisions are absent at
    // this scale).
    ExperimentConfig config;
    config.dataset.scale = kTinyScale;
    config.lut = {8 * 1024, 512 * 1024};
    const ExperimentRunner runner(config);
    auto workload = makeWorkload(GetParam());
    const Comparison cmp =
        runner.compare(*workload, "axmemo-notrunc");
    EXPECT_EQ(cmp.qualityLoss, 0.0);
    EXPECT_GT(cmp.subject.lookups, 0u);
}

TEST_P(WorkloadTest, QualityWithinPaperBounds)
{
    // With Table 2 truncation the output error must stay within the
    // bound used for code generation (0.1%, or 1% for image outputs),
    // up to a small margin for the synthetic datasets.
    ExperimentConfig config;
    config.dataset.scale = 0.02;
    config.lut = {8 * 1024, 512 * 1024};
    const ExperimentRunner runner(config);
    auto workload = makeWorkload(GetParam());
    const Comparison cmp = runner.compare(*workload, "axmemo");
    const double bound = workload->imageOutput() ? 0.05 : 0.01;
    EXPECT_LE(cmp.qualityLoss, bound);
    EXPECT_FALSE(cmp.subject.stats.memo.monitorTripped);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadTest, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(WorkloadRegistry, TenBenchmarksInTable2Order)
{
    const auto names = workloadNames();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "blackscholes");
    EXPECT_EQ(names.back(), "srad");
}

TEST(WorkloadRegistry, UnknownNameFatal)
{
    EXPECT_THROW(makeWorkload("nope"), std::runtime_error);
}

TEST(WorkloadTable2, InputSizesMatchPaper)
{
    // Table 2's memoization input sizes (bytes) per logical LUT.
    const std::map<std::string, std::vector<unsigned>> expected = {
        {"blackscholes", {24}}, {"fft", {4}},     {"inversek2j", {8}},
        {"jmeint", {32}},       {"jpeg", {16, 16}}, {"kmeans", {12}},
        {"sobel", {36}},        {"hotspot", {16}}, {"lavamd", {12}},
        {"srad", {24}},
    };
    for (const auto &[name, sizes] : expected) {
        auto workload = makeWorkload(name);
        SimMemory mem;
        workload->prepare(mem, tinyParams());
        // build() must precede memoSpec(): the spec names registers the
        // builder allocates.
        const Program prog = workload->build();
        const TransformResult tr =
            MemoTransform::apply(prog, workload->memoSpec());
        std::map<LutId, unsigned> perLut;
        for (const auto &region : tr.regions)
            perLut[region.lut] = region.inputBytes;
        std::vector<unsigned> got;
        for (const auto &[lut, bytes] : perLut)
            got.push_back(bytes);
        EXPECT_EQ(got, sizes) << name;
    }
}

} // namespace
} // namespace axmemo
