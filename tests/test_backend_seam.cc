/**
 * @file
 * Seam-equivalence suite for the MemoBackend refactor: the registry
 * dispatch in ExperimentRunner::runPrepared must reproduce the old
 * Mode-enum switch byte for byte. A verbatim replica of the
 * pre-refactor switch lives below; for every legacy mode the replica
 * and the registry path are compared on the full serialized RunResult
 * (JSON), the rendered run report, the gem5-style stats section
 * (every scalar and distribution), and the checkpoint-journal record.
 * Plus registry-behavior tests: resolution, listing order, error
 * shape for unknown names.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/axmemo.hh"
#include "core/json_export.hh"
#include "core/report.hh"
#include "core/run_journal.hh"
#include "core/run_stats.hh"

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

// ---------------------------------------------------------------------
// Pre-refactor reference: the Mode-enum switch exactly as it stood in
// ExperimentRunner::runPrepared before the MemoBackend seam, with its
// two private helpers inlined. Do not "modernize" this — its value is
// being the frozen original.

// The enum the replica switches on, and the registered backend name of
// each mode. The library addresses backends by name only; the enum
// lives on here as part of the frozen original.
enum class Mode
{
    Baseline,
    AxMemo,
    AxMemoNoTrunc,
    SoftwareLut,
    Atm
};

constexpr const char *kModeNames[] = {
    "baseline", "axmemo", "axmemo-notrunc", "software-lut", "atm"};

const char *
modeName(Mode mode)
{
    return kModeNames[static_cast<int>(mode)];
}

MemoUnitConfig
legacyMemoConfigFor(const ExperimentConfig &config,
                    const Workload &workload, unsigned dataBytes)
{
    MemoUnitConfig memo;
    memo.crc = CrcSpec::ofWidth(config.crcBits);
    memo.l1Lut.sizeBytes = config.lut.l1Bytes;
    memo.l1Lut.dataBytes = dataBytes;
    memo.l2LutBytes = config.lut.l2Bytes;
    memo.quality.enabled = config.qualityMonitor;
    memo.quality.floatLanes = workload.monitorLanes();
    memo.quality.integerData = workload.integerOutputs();
    memo.adaptive = config.adaptive;
    memo.l2Policy = config.l2Policy;
    return memo;
}

RunResult
legacyRunPrepared(const ExperimentConfig &config,
                  const Workload &workload, Mode mode,
                  const Program &baselineProg, SimMemory &mem)
{
    RunResult result;
    result.backend = modeName(mode);

    SimConfig simConfig;
    simConfig.cpu = config.cpu;
    simConfig.hierarchy = config.hierarchy;

    const EnergyModel energyModel(config.energy);

    switch (mode) {
      case Mode::Baseline: {
        Simulator sim(baselineProg, mem, simConfig);
        result.stats = sim.run();
        result.energy = energyModel.compute(result.stats, nullptr);
        break;
      }
      case Mode::AxMemo:
      case Mode::AxMemoNoTrunc: {
        MemoSpec spec = workload.memoSpec();
        if (mode == Mode::AxMemoNoTrunc)
            spec = spec.withUniformTruncation(0);
        else if (config.truncOverride >= 0)
            spec = spec.withUniformTruncation(
                static_cast<unsigned>(config.truncOverride));
        TransformResult tr = MemoTransform::apply(baselineProg, spec);
        simConfig.memoEnabled = true;
        simConfig.memo =
            legacyMemoConfigFor(config, workload, tr.dataBytes);
        Simulator sim(tr.program, mem, simConfig);
        result.stats = sim.run();
        result.energy =
            energyModel.compute(result.stats, &simConfig.memo);
        result.lookups = result.stats.memo.lookups;
        result.hits = result.stats.memo.hits();
        result.regions = std::move(tr.regions);
        break;
      }
      case Mode::SoftwareLut:
      case Mode::Atm: {
        const MemoSpec spec = workload.memoSpec();
        SwTransformResult tr =
            mode == Mode::Atm
                ? AtmTransform::apply(baselineProg, spec, mem,
                                      config.atm)
                : SoftwareMemoTransform::apply(baselineProg, spec, mem,
                                               config.software);
        Simulator sim(tr.program, mem, simConfig);
        result.stats = sim.run();
        result.energy = energyModel.compute(result.stats, nullptr);
        for (const auto &counter : tr.counters) {
            result.lookups += sim.intReg(counter.lookups);
            result.hits += sim.intReg(counter.hits);
        }
        result.regions = std::move(tr.regions);
        break;
      }
    }

    result.outputs = workload.readOutputs(mem);
    result.outputsDigest = digestOutputs(result.outputs);
    return result;
}

/** Run @p mode through both paths on identically prepared memory. */
std::pair<RunResult, RunResult>
bothPaths(const std::string &workloadName, Mode mode,
          const ExperimentConfig &config)
{
    auto legacyWl = makeWorkload(workloadName);
    SimMemory legacyMem;
    legacyWl->prepare(legacyMem, config.dataset);
    const Program legacyProg = legacyWl->build();
    RunResult legacy = legacyRunPrepared(config, *legacyWl, mode,
                                         legacyProg, legacyMem);

    auto newWl = makeWorkload(workloadName);
    SimMemory newMem;
    newWl->prepare(newMem, config.dataset);
    const Program newProg = newWl->build();
    RunResult fresh = ExperimentRunner(config).runPrepared(
        *newWl, modeName(mode), newProg, newMem);

    return {std::move(legacy), std::move(fresh)};
}

/** Byte-compare every output surface a RunResult feeds. */
void
expectIdenticalSurfaces(const std::string &workloadName, Mode mode,
                        const ExperimentConfig &config)
{
    auto [legacy, fresh] = bothPaths(workloadName, mode, config);

    EXPECT_EQ(JsonWriter::toJson(legacy), JsonWriter::toJson(fresh))
        << workloadName << " " << modeName(mode);
    EXPECT_EQ(formatRunReport(legacy, config),
              formatRunReport(fresh, config))
        << workloadName << " " << modeName(mode);
    EXPECT_EQ(legacy.outputs, fresh.outputs);

    SweepJob job;
    job.workload = workloadName;
    job.backend = modeName(mode);
    job.config = config;

    SweepOutcome legacyOutcome, freshOutcome;
    legacyOutcome.run = legacy;
    freshOutcome.run = fresh;

    // The stats section renders every scalar, formula and distribution
    // of SimStats — equality here is full-SimStats equality.
    EXPECT_EQ(runStatsSection("run", job, legacyOutcome),
              runStatsSection("run", job, freshOutcome))
        << workloadName << " " << modeName(mode);
    EXPECT_EQ(SweepJournal::encodeLine(SweepJournal::jobKey(job),
                                       legacyOutcome),
              SweepJournal::encodeLine(SweepJournal::jobKey(job),
                                       freshOutcome))
        << workloadName << " " << modeName(mode);
}

class BackendSeam : public ::testing::TestWithParam<Mode>
{
};

TEST_P(BackendSeam, MatchesLegacySwitchOnBlackscholes)
{
    expectIdenticalSurfaces("blackscholes", GetParam(), tinyConfig());
}

TEST_P(BackendSeam, MatchesLegacySwitchOnFft)
{
    expectIdenticalSurfaces("fft", GetParam(), tinyConfig());
}

INSTANTIATE_TEST_SUITE_P(
    AllLegacyModes, BackendSeam,
    ::testing::Values(Mode::Baseline, Mode::AxMemo,
                      Mode::AxMemoNoTrunc, Mode::SoftwareLut,
                      Mode::Atm),
    [](const ::testing::TestParamInfo<Mode> &info) {
        std::string name = modeName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(BackendSeam, TruncOverrideFlowsThroughSeam)
{
    ExperimentConfig config = tinyConfig();
    config.truncOverride = 8;
    expectIdenticalSurfaces("sobel", Mode::AxMemo, config);
}

// ---------------------------------------------------------------------
// Registry behavior.

TEST(BackendRegistry, LegacyModeNamesAllResolve)
{
    for (const char *name : kModeNames) {
        const MemoBackend *backend = memoBackends().find(name);
        ASSERT_NE(backend, nullptr) << name;
        EXPECT_EQ(backend->name(), name);
        EXPECT_FALSE(backend->description().empty());
    }
}

TEST(BackendRegistry, ListIsOrderedAndStartsWithBaseline)
{
    const std::vector<const MemoBackend *> backends =
        memoBackends().list();
    ASSERT_GE(backends.size(), 6u);
    EXPECT_EQ(backends.front()->name(), "baseline");
    // iact rides behind every legacy mode.
    bool sawIact = false;
    for (const MemoBackend *backend : backends)
        sawIact |= backend->name() == "iact";
    EXPECT_TRUE(sawIact);
}

TEST(BackendRegistry, OnlyHardwareBackendsReportHardwareMemo)
{
    EXPECT_TRUE(memoBackends().find("axmemo")->hardwareMemo());
    EXPECT_TRUE(
        memoBackends().find("axmemo-notrunc")->hardwareMemo());
    EXPECT_FALSE(memoBackends().find("baseline")->hardwareMemo());
    EXPECT_FALSE(memoBackends().find("software-lut")->hardwareMemo());
    EXPECT_FALSE(memoBackends().find("atm")->hardwareMemo());
    EXPECT_FALSE(memoBackends().find("iact")->hardwareMemo());
}

TEST(BackendRegistry, FindReturnsNullForUnknown)
{
    EXPECT_EQ(memoBackends().find("no-such-backend"), nullptr);
}

TEST(BackendRegistry, RunnerThrowsStructuredErrorForUnknownBackend)
{
    auto workload = makeWorkload("fft");
    const ExperimentRunner runner(tinyConfig());
    try {
        runner.run(*workload, "axmemoo");
        FAIL() << "expected AxException";
    } catch (const AxException &e) {
        EXPECT_EQ(e.error().code, ErrorCode::Config);
        EXPECT_NE(e.error().message.find("axmemoo"),
                  std::string::npos);
        EXPECT_NE(e.error().message.find("did you mean"),
                  std::string::npos);
    }
}

} // namespace
} // namespace axmemo
