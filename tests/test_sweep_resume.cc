/**
 * @file
 * Tests of the fault-tolerant run lifecycle: checkpoint journaling and
 * resume (run_journal), per-job fault containment and retry, watchdog
 * timeout classification, and atomic output writes.
 *
 * The load-bearing property is byte-fidelity: a resumed sweep must
 * produce outcomes — and therefore reports — identical to an
 * uninterrupted run, so most tests execute the same job matrix twice
 * (once journaled, once replayed) and demand equality down to the
 * distribution buckets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/interrupt.hh"
#include "common/run_control.hh"
#include "core/output_paths.hh"
#include "core/run_journal.hh"
#include "core/shard_queue.hh"
#include "core/sweep.hh"

namespace axmemo {
namespace {

/** A unique temp path per test, removed on scope exit. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "axmemo_" + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

ExperimentConfig
tinyConfig()
{
    ExperimentConfig config;
    config.dataset.scale = 0.01;
    config.lut = {8 * 1024, 512 * 1024};
    return config;
}

/** Fault policy used by every engine here: serial, deterministic,
 * timing off so two runs are comparable field-by-field. */
RuntimeOptions
testOptions()
{
    RuntimeOptions options;
    options.jobs = 2;
    options.reportTiming = false;
    return options;
}

void
enqueueMatrix(SweepEngine &engine)
{
    engine.enqueueCompare("sobel", "axmemo", tinyConfig());
    ExperimentConfig small = tinyConfig();
    small.lut = {4 * 1024, 0};
    engine.enqueueCompare("sobel", "software-lut", small);
    engine.enqueueRun("sobel", "baseline", tinyConfig());
}

void
expectStatsEqual(const SimStats &a, const SimStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.macroInsts, b.macroInsts) << what;
    EXPECT_EQ(a.uops, b.uops) << what;
    EXPECT_EQ(a.memo.lookups, b.memo.lookups) << what;
    EXPECT_EQ(a.memo.hits(), b.memo.hits()) << what;
}

void
expectOutcomesEqual(const SweepOutcome &a, const SweepOutcome &b,
                    const std::string &what)
{
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.scored, b.scored) << what;
    expectStatsEqual(a.run.stats, b.run.stats, what + " run");
    EXPECT_EQ(a.run.lookups, b.run.lookups) << what;
    EXPECT_EQ(a.run.hits, b.run.hits) << what;
    EXPECT_DOUBLE_EQ(a.run.energyPj(), b.run.energyPj()) << what;
    // Journal records keep the outputs' digest, not the outputs: the
    // digest always compares, the values when both sides hold them.
    EXPECT_EQ(a.run.outputsDigest, b.run.outputsDigest) << what;
    if (!a.run.outputs.empty() && !b.run.outputs.empty()) {
        ASSERT_EQ(a.run.outputs.size(), b.run.outputs.size()) << what;
        for (std::size_t i = 0; i < a.run.outputs.size(); ++i)
            ASSERT_EQ(a.run.outputs[i], b.run.outputs[i])
                << what << " output " << i;
    }
    if (a.scored) {
        EXPECT_DOUBLE_EQ(a.cmp.speedup, b.cmp.speedup) << what;
        EXPECT_DOUBLE_EQ(a.cmp.energyReduction, b.cmp.energyReduction)
            << what;
        EXPECT_DOUBLE_EQ(a.cmp.qualityLoss, b.cmp.qualityLoss) << what;
        EXPECT_DOUBLE_EQ(a.cmp.normalizedUops, b.cmp.normalizedUops)
            << what;
        expectStatsEqual(a.cmp.baseline.stats, b.cmp.baseline.stats,
                         what + " baseline");
        EXPECT_EQ(a.cmp.baseline.outputsDigest,
                  b.cmp.baseline.outputsDigest)
            << what;
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(SweepResume, JournalRecordsEveryCompletedJob)
{
    TempFile journal("journal_records.ckpt");
    SweepEngine engine(testOptions());
    engine.setJournal(journal.path(), /*resume=*/false);
    enqueueMatrix(engine);
    const std::vector<SweepOutcome> outcomes = engine.execute();
    engine.closeJournal(/*removeFile=*/false);

    std::size_t skipped = 0;
    const auto records = SweepJournal::load(journal.path(), &skipped);
    EXPECT_EQ(skipped, 0u);
    ASSERT_EQ(records.size(), outcomes.size());

    // Every enqueued job's key must be present and decode to an
    // outcome identical to the live one.
    SweepEngine probe(testOptions());
    enqueueMatrix(probe);
    const std::vector<SweepJob> jobs = probe.pending();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto it = records.find(SweepJournal::jobKey(jobs[i]));
        ASSERT_NE(it, records.end()) << "job " << i;
        EXPECT_TRUE(it->second.restored);
        expectOutcomesEqual(it->second, outcomes[i],
                            "journaled job " + std::to_string(i));
    }
}

TEST(SweepResume, EncodeDecodeLineRoundTrips)
{
    SweepEngine engine(testOptions());
    enqueueMatrix(engine);
    const std::vector<SweepJob> jobs = engine.pending();
    const std::vector<SweepOutcome> outcomes = engine.execute();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string key = SweepJournal::jobKey(jobs[i]);
        const std::string line =
            SweepJournal::encodeLine(key, outcomes[i]);
        const auto decoded = SweepJournal::decodeLine(line);
        ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
        EXPECT_EQ(decoded.value().first, key);
        expectOutcomesEqual(decoded.value().second, outcomes[i],
                            "decoded line " + std::to_string(i));
        // Re-encoding the decoded outcome must reproduce the exact
        // line: the codec loses nothing the codec itself can see.
        SweepOutcome copy = decoded.value().second;
        copy.restored = false;
        EXPECT_EQ(SweepJournal::encodeLine(key, copy), line);
    }
}

TEST(SweepResume, RecordsKeepDigestsNotOutputs)
{
    SweepEngine engine(testOptions());
    enqueueMatrix(engine);
    const std::vector<SweepJob> jobs = engine.pending();
    const std::vector<SweepOutcome> outcomes = engine.execute();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string line = SweepJournal::encodeLine(
            SweepJournal::jobKey(jobs[i]), outcomes[i]);
        EXPECT_EQ(line.find("\"outputs\""), std::string::npos) << i;
        EXPECT_EQ(line.find("\"subject\""), std::string::npos) << i;
        EXPECT_NE(line.find("\"digest\":" +
                            std::to_string(outcomes[i].run.outputsDigest)),
                  std::string::npos)
            << i;
    }
}

TEST(SweepResume, OutputsDigestIsFnv1aOfOutputBytes)
{
    SweepEngine engine(testOptions());
    enqueueMatrix(engine);
    const std::vector<SweepOutcome> outcomes = engine.execute();

    // FNV-1a-64 over one 64-bit output word per step, written out
    // here independently of the library's.
    const auto fnv = [](const std::vector<double> &values) {
        std::uint64_t hash = 0xcbf29ce484222325ull;
        for (const double value : values) {
            std::uint64_t word = 0;
            std::memcpy(&word, &value, sizeof(word));
            hash ^= word;
            hash *= 0x100000001b3ull;
        }
        return hash;
    };
    for (const SweepOutcome &outcome : outcomes) {
        ASSERT_TRUE(outcome.ok());
        ASSERT_FALSE(outcome.run.outputs.empty());
        EXPECT_EQ(outcome.run.outputsDigest, fnv(outcome.run.outputs));
        std::vector<double> flipped = outcome.run.outputs;
        std::uint64_t bits = 0;
        std::memcpy(&bits, &flipped[flipped.size() / 2], sizeof(bits));
        bits ^= 1;
        std::memcpy(&flipped[flipped.size() / 2], &bits, sizeof(bits));
        EXPECT_NE(digestOutputs(flipped), outcome.run.outputsDigest);
        if (!outcome.scored)
            continue;
        // A fresh scored outcome has a replayed one's shape: the
        // comparison holds digests, and the run is the only copy of the
        // subject's outputs.
        EXPECT_TRUE(outcome.cmp.baseline.outputs.empty());
        EXPECT_TRUE(outcome.cmp.subject.outputs.empty());
        RunResult subject = outcome.run;
        subject.outputs.clear();
        EXPECT_EQ(SweepJournal::encodeRunLine(outcome.cmp.subject),
                  SweepJournal::encodeRunLine(subject));
        EXPECT_EQ(outcome.cmp.baseline.outputsDigest,
                  outcomes[2].run.outputsDigest); // the baseline job
    }
}

TEST(SweepResume, IsolatePipeLineCarriesOutputs)
{
    SweepEngine engine(testOptions());
    engine.enqueueRun("sobel", "axmemo", tinyConfig());
    const RunResult run = engine.execute()[0].run;

    const std::string line = SweepJournal::encodeRunLine(run);
    const Expected<RunResult> decoded = SweepJournal::decodeRunLine(line);
    ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
    EXPECT_EQ(decoded.value().outputs, run.outputs);
    EXPECT_EQ(decoded.value().outputsDigest, run.outputsDigest);
    EXPECT_EQ(SweepJournal::encodeRunLine(decoded.value()), line);

    // Outputs that no longer match their digest are damage.
    RunResult tampered = run;
    tampered.outputs[0] += 1.0;
    const Expected<RunResult> rejected =
        SweepJournal::decodeRunLine(SweepJournal::encodeRunLine(tampered));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().code, ErrorCode::Parse);
}

TEST(SweepResume, ResumeRestartsJournalOfAnotherVersion)
{
    TempFile journal("old_version.ckpt");

    SweepEngine first(testOptions());
    enqueueMatrix(first);
    const std::vector<SweepJob> jobs = first.pending();
    const std::vector<SweepOutcome> uninterrupted = first.execute();

    // An old header followed by a line that would otherwise replay.
    // The previous version's records still decode (only the digest's
    // definition changed), so the header alone must keep them out.
    {
        std::ofstream out(journal.path(), std::ios::binary);
        out << "{\"axmemo_sweep_journal\":"
            << SweepJournal::version - 1 << "}\n"
            << SweepJournal::encodeLine(SweepJournal::jobKey(jobs[0]),
                                        uninterrupted[0])
            << '\n';
    }
    ASSERT_FALSE(SweepJournal::probe(journal.path()).ok());

    SweepEngine second(testOptions());
    EXPECT_EQ(second.setJournal(journal.path(), /*resume=*/true), 0u);
    enqueueMatrix(second);
    const std::vector<SweepOutcome> resumed = second.execute();
    second.closeJournal(/*removeFile=*/false);

    EXPECT_EQ(second.metrics().restoredJobs, 0u);
    ASSERT_EQ(resumed.size(), uninterrupted.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_FALSE(resumed[i].restored) << i;
        expectOutcomesEqual(resumed[i], uninterrupted[i],
                            "restarted job " + std::to_string(i));
    }

    // The kept file is a current journal holding exactly this run.
    const Expected<SweepJournal::HeaderInfo> header =
        SweepJournal::probe(journal.path());
    ASSERT_TRUE(header.ok()) << header.error().describe();
    EXPECT_EQ(header.value().version, SweepJournal::version);
    std::size_t skipped = 0;
    EXPECT_EQ(SweepJournal::load(journal.path(), &skipped).size(),
              uninterrupted.size());
    EXPECT_EQ(skipped, 0u);
}

TEST(SweepResume, ResumeMatchesUninterruptedRun)
{
    TempFile journal("resume_matches.ckpt");

    SweepEngine first(testOptions());
    first.setJournal(journal.path(), /*resume=*/false);
    enqueueMatrix(first);
    const std::vector<SweepOutcome> uninterrupted = first.execute();
    const SweepMetrics firstMetrics = first.metrics();
    first.closeJournal(/*removeFile=*/false);

    SweepEngine second(testOptions());
    EXPECT_EQ(second.setJournal(journal.path(), /*resume=*/true),
              uninterrupted.size());
    enqueueMatrix(second);
    const std::vector<SweepOutcome> resumed = second.execute();
    second.closeJournal(/*removeFile=*/false);

    ASSERT_EQ(resumed.size(), uninterrupted.size());
    EXPECT_EQ(second.metrics().restoredJobs, resumed.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_TRUE(resumed[i].restored) << i;
        expectOutcomesEqual(resumed[i], uninterrupted[i],
                            "resumed job " + std::to_string(i));
    }

    // The report-visible metrics must match the uninterrupted run:
    // replayed jobs still account for the caches they would have
    // populated, and restoredJobs is deliberately not report-visible.
    EXPECT_EQ(second.metrics().jobs, firstMetrics.jobs);
    EXPECT_EQ(second.metrics().preparedPrograms,
              firstMetrics.preparedPrograms);
    EXPECT_EQ(second.metrics().baselineRequests,
              firstMetrics.baselineRequests);
    EXPECT_EQ(second.metrics().baselineSimulations,
              firstMetrics.baselineSimulations);
    EXPECT_EQ(second.metrics().simulatedMacroInsts,
              firstMetrics.simulatedMacroInsts);
}

TEST(SweepResume, TornFinalLineIsDroppedAndResimulated)
{
    TempFile journal("torn_line.ckpt");

    SweepEngine first(testOptions());
    first.setJournal(journal.path(), /*resume=*/false);
    enqueueMatrix(first);
    const std::vector<SweepOutcome> uninterrupted = first.execute();
    first.closeJournal(/*removeFile=*/false);

    // Tear the final record mid-line, as a SIGKILL mid-write would.
    std::string contents = readFile(journal.path());
    ASSERT_GT(contents.size(), 40u);
    contents.resize(contents.size() - 25);
    {
        std::ofstream out(journal.path(),
                          std::ios::binary | std::ios::trunc);
        out << contents;
    }

    std::size_t skipped = 0;
    const auto records = SweepJournal::load(journal.path(), &skipped);
    EXPECT_EQ(skipped, 1u);
    EXPECT_EQ(records.size(), uninterrupted.size() - 1);

    // Resume: the torn job re-simulates, everything still matches.
    SweepEngine second(testOptions());
    EXPECT_EQ(second.setJournal(journal.path(), /*resume=*/true),
              uninterrupted.size() - 1);
    enqueueMatrix(second);
    const std::vector<SweepOutcome> resumed = second.execute();
    second.closeJournal(/*removeFile=*/false);

    EXPECT_EQ(second.metrics().restoredJobs, uninterrupted.size() - 1);
    for (std::size_t i = 0; i < resumed.size(); ++i)
        expectOutcomesEqual(resumed[i], uninterrupted[i],
                            "post-torn job " + std::to_string(i));
}

TEST(SweepResume, DeeplyNestedLineIsSkippedNotFatal)
{
    TempFile journal("deep_line.ckpt");

    SweepEngine first(testOptions());
    first.setJournal(journal.path(), /*resume=*/false);
    enqueueMatrix(first);
    const std::vector<SweepOutcome> uninterrupted = first.execute();
    first.closeJournal(/*removeFile=*/false);

    // A hostile line nested 100,000 deep: a Parse error, never a
    // stack overflow, and the good records around it still load.
    {
        std::ofstream out(journal.path(),
                          std::ios::binary | std::ios::app);
        out << std::string(100000, '[') << '\n';
    }
    std::size_t skipped = 0;
    const auto records = SweepJournal::load(journal.path(), &skipped);
    EXPECT_EQ(skipped, 1u);
    EXPECT_EQ(records.size(), uninterrupted.size());
}

TEST(SweepResume, ConfigChangeInvalidatesJournaledJobs)
{
    TempFile journal("config_change.ckpt");

    SweepEngine first(testOptions());
    first.setJournal(journal.path(), /*resume=*/false);
    first.enqueueRun("sobel", "axmemo", tinyConfig());
    first.execute();
    first.closeJournal(/*removeFile=*/false);

    // Any knob change alters the canonical config serialization, so
    // the journaled record no longer keys to the re-enqueued job.
    ExperimentConfig changed = tinyConfig();
    changed.crcBits = 16;
    SweepEngine second(testOptions());
    EXPECT_EQ(second.setJournal(journal.path(), /*resume=*/true), 1u);
    second.enqueueRun("sobel", "axmemo", changed);
    const std::vector<SweepOutcome> outcomes = second.execute();
    second.closeJournal(/*removeFile=*/false);

    EXPECT_EQ(second.metrics().restoredJobs, 0u);
    EXPECT_FALSE(outcomes[0].restored);
    EXPECT_TRUE(outcomes[0].ok());
}

TEST(SweepResume, InjectedFaultIsRetriedThenSucceeds)
{
    RuntimeOptions options = testOptions();
    options.retries = 1;
    options.faultInject = "sobel:1"; // fail the first attempt only

    SweepEngine engine(options);
    engine.enqueueRun("sobel", "axmemo", tinyConfig());
    const std::vector<SweepOutcome> outcomes = engine.execute();

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_EQ(engine.metrics().retriedJobs, 1u);
    EXPECT_EQ(engine.metrics().failedJobs, 0u);

    // The retried result must equal a clean run's.
    SweepEngine clean(testOptions());
    clean.enqueueRun("sobel", "axmemo", tinyConfig());
    expectOutcomesEqual(outcomes[0], clean.execute()[0],
                        "retried vs clean");
}

TEST(SweepResume, PersistentFaultExhaustsRetriesAndIsContained)
{
    RuntimeOptions options = testOptions();
    options.retries = 2;
    options.faultInject = "sobel"; // fail every attempt

    SweepEngine engine(options);
    engine.enqueueRun("sobel", "axmemo", tinyConfig());
    engine.enqueueRun("fft", "axmemo", tinyConfig());
    const std::vector<SweepOutcome> outcomes = engine.execute();

    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[0].attempts, 3u); // 1 try + 2 retries
    EXPECT_EQ(outcomes[0].fault.code, ErrorCode::Simulation);
    EXPECT_FALSE(outcomes[0].fault.message.empty());
    // The fault is contained: the other job still completes.
    EXPECT_TRUE(outcomes[1].ok());
    EXPECT_EQ(engine.metrics().failedJobs, 1u);
    EXPECT_EQ(engine.metrics().faultedJobs(), 1u);
}

TEST(SweepResume, FailedJobsAreNotJournaled)
{
    TempFile journal("failed_not_journaled.ckpt");
    RuntimeOptions options = testOptions();
    options.retries = 0;
    options.faultInject = "sobel";

    SweepEngine engine(options);
    engine.setJournal(journal.path(), /*resume=*/false);
    engine.enqueueRun("sobel", "axmemo", tinyConfig());
    engine.enqueueRun("fft", "axmemo", tinyConfig());
    engine.execute();
    engine.closeJournal(/*removeFile=*/false);

    // Only the successful job is checkpointed; resuming re-runs the
    // failed one.
    EXPECT_EQ(SweepJournal::load(journal.path()).size(), 1u);
}

TEST(SweepResume, ExpiredWatchdogClassifiesTimedOutWithoutRetry)
{
    RuntimeOptions options = testOptions();
    options.retries = 3;
    options.jobTimeoutSeconds = 1e-9; // expired by the first poll
    ExperimentConfig config = tinyConfig();
    config.dataset.scale = 1.0; // enough work to reach a poll point

    SweepEngine engine(options);
    engine.enqueueRun("blackscholes", "axmemo", config);
    const std::vector<SweepOutcome> outcomes = engine.execute();

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::TimedOut);
    EXPECT_EQ(outcomes[0].fault.code, ErrorCode::Timeout);
    EXPECT_EQ(outcomes[0].attempts, 1u); // timeouts are never retried
    EXPECT_EQ(engine.metrics().timedOutJobs, 1u);
    EXPECT_EQ(engine.metrics().retriedJobs, 0u);
}

TEST(SweepResume, InterruptSkipsRemainingJobs)
{
    setInterruptForTest(2);
    RuntimeOptions options = testOptions();
    options.jobs = 1;
    SweepEngine engine(options);
    engine.enqueueRun("sobel", "axmemo", tinyConfig());
    const std::vector<SweepOutcome> outcomes = engine.execute();
    setInterruptForTest(0);

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Skipped);
    EXPECT_EQ(outcomes[0].fault.code, ErrorCode::Cancelled);
    EXPECT_EQ(engine.metrics().skippedJobs, 1u);
}

TEST(SweepResume, RunControlRaisesStructuredErrors)
{
    RunControl expired;
    expired.hasDeadline = true;
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::seconds(1);
    try {
        expired.check("test");
        FAIL() << "expired deadline did not throw";
    } catch (const AxException &e) {
        EXPECT_EQ(e.error().code, ErrorCode::Timeout);
        EXPECT_EQ(e.error().component, "test");
    }

    RunControl cancelled;
    cancelled.cancelled = [] { return true; };
    try {
        cancelled.check("test");
        FAIL() << "cancelled control did not throw";
    } catch (const AxException &e) {
        EXPECT_EQ(e.error().code, ErrorCode::Cancelled);
    }

    const RunControl inert;
    EXPECT_FALSE(inert.active());
    EXPECT_NO_THROW(inert.check("test"));
}

TEST(SweepResume, AtomicWriteReplacesWholeFileOrNothing)
{
    TempFile target("atomic_write.json");
    ASSERT_TRUE(atomicWriteFile(target.path(), "first version\n").ok());
    EXPECT_EQ(readFile(target.path()), "first version\n");
    ASSERT_TRUE(atomicWriteFile(target.path(), "second\n").ok());
    EXPECT_EQ(readFile(target.path()), "second\n");

    // An unwritable destination reports Io and leaves no temp litter.
    const Expected<void> bad =
        atomicWriteFile("/nonexistent-dir/axmemo.json", "x");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::Io);
}

TEST(SweepResume, MissingJournalLoadsEmpty)
{
    std::size_t skipped = 7;
    const auto records = SweepJournal::load(
        std::string(::testing::TempDir()) + "axmemo_no_such.ckpt",
        &skipped);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(skipped, 0u);
}

// ------------------------------------------------------- shard queue

/** A unique temp directory per test, removed recursively on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "axmemo_" + name)
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(ShardQueue, ClaimIsSingleWinnerAndDoneResolvesForeign)
{
    TempDir dir("shard_single_winner");
    ShardQueue a(dir.path(), "a", 30.0);
    ShardQueue b(dir.path(), "b", 30.0);

    EXPECT_EQ(a.tryClaim("job"), ShardQueue::Claim::Acquired);
    EXPECT_EQ(b.tryClaim("job"), ShardQueue::Claim::Busy);

    a.markDone("job", /*ok=*/true);
    EXPECT_EQ(b.tryClaim("job"), ShardQueue::Claim::Done);
    // A done marker is terminal for everyone, the holder included.
    EXPECT_EQ(a.tryClaim("job"), ShardQueue::Claim::Done);

    EXPECT_EQ(a.counters().claimed, 1u);
    EXPECT_EQ(a.counters().completed, 1u);
    EXPECT_EQ(b.counters().claimed, 0u);
    EXPECT_EQ(b.counters().foreign, 1u);
}

TEST(ShardQueue, ConcurrentClaimsNeverDuplicate)
{
    TempDir dir("shard_concurrent");
    ShardQueue a(dir.path(), "a", 30.0);
    ShardQueue b(dir.path(), "b", 30.0);

    // Two workers race over the same key set in opposite orders; the
    // O_EXCL claim must hand each key to exactly one of them.
    constexpr int kKeys = 64;
    std::atomic<int> acquired{0};
    const auto drain = [&](ShardQueue &queue, bool reverse) {
        for (int i = 0; i < kKeys; ++i) {
            const int k = reverse ? kKeys - 1 - i : i;
            if (queue.tryClaim("job" + std::to_string(k)) ==
                ShardQueue::Claim::Acquired)
                ++acquired;
        }
    };
    std::thread ta([&] { drain(a, false); });
    std::thread tb([&] { drain(b, true); });
    ta.join();
    tb.join();

    EXPECT_EQ(acquired.load(), kKeys);
    EXPECT_EQ(a.counters().claimed + b.counters().claimed,
              static_cast<std::uint64_t>(kKeys));
    EXPECT_EQ(a.counters().stolen, 0u);
    EXPECT_EQ(b.counters().stolen, 0u);
}

TEST(ShardQueue, ReleaseReturnsJobToTheQueue)
{
    TempDir dir("shard_release");
    ShardQueue a(dir.path(), "a", 30.0);
    ShardQueue b(dir.path(), "b", 30.0);

    EXPECT_EQ(a.tryClaim("job"), ShardQueue::Claim::Acquired);
    a.release("job");
    EXPECT_EQ(a.counters().released, 1u);
    EXPECT_EQ(b.tryClaim("job"), ShardQueue::Claim::Acquired);
}

TEST(ShardQueue, StaleClaimOfDeadWorkerIsStolen)
{
    TempDir dir("shard_steal");
    // The victim claims and then dies (destruction stops the
    // heartbeat; normal completion would have removed the claim).
    {
        ShardQueue victim(dir.path(), "victim", 0.2);
        EXPECT_EQ(victim.tryClaim("job"),
                  ShardQueue::Claim::Acquired);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(450));

    ShardQueue thief(dir.path(), "thief", 0.2);
    EXPECT_EQ(thief.tryClaim("job"), ShardQueue::Claim::Acquired);
    EXPECT_EQ(thief.counters().claimed, 1u);
    EXPECT_EQ(thief.counters().stolen, 1u);
}

TEST(ShardQueue, LiveClaimIsNotStolenWhileHeartbeatRuns)
{
    TempDir dir("shard_heartbeat");
    ShardQueue holder(dir.path(), "holder", 0.3);
    EXPECT_EQ(holder.tryClaim("job"), ShardQueue::Claim::Acquired);

    // Well past the lease window; the heartbeat thread must have kept
    // the claim's mtime fresh the whole time.
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    ShardQueue thief(dir.path(), "thief", 0.3);
    EXPECT_EQ(thief.tryClaim("job"), ShardQueue::Claim::Busy);
    EXPECT_EQ(thief.counters().stolen, 0u);
}

TEST(SweepResume, ProbeClassifiesJournalDamage)
{
    // Missing file: Io.
    const std::string missing =
        std::string(::testing::TempDir()) + "axmemo_probe_missing.ckpt";
    std::remove(missing.c_str());
    Expected<SweepJournal::HeaderInfo> result =
        SweepJournal::probe(missing);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::Io);

    // Garbled header line: Parse.
    TempFile garbled("probe_garbled.ckpt");
    {
        std::ofstream out(garbled.path());
        out << "this is not a journal\n";
    }
    result = SweepJournal::probe(garbled.path());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::Parse);

    // Unsupported version: Parse.
    TempFile versioned("probe_version.ckpt");
    {
        std::ofstream out(versioned.path());
        out << "{\"axmemo_sweep_journal\":99}\n";
    }
    result = SweepJournal::probe(versioned.path());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::Parse);

    // A journal the append side just created: ok, current version.
    TempFile good("probe_good.ckpt");
    {
        SweepJournal journal;
        ASSERT_TRUE(journal.open(good.path(), /*fresh=*/true).ok());
        journal.close();
    }
    result = SweepJournal::probe(good.path());
    ASSERT_TRUE(result.ok()) << result.error().describe();
    EXPECT_EQ(result.value().version, 4);
}

TEST(SweepResume, AppendOpenOnFreshPathWritesExactlyOneHeader)
{
    // Shard workers open their journal segment with fresh=false (the
    // segment may hold records from an earlier incarnation). On a
    // brand-new path that append-open must still write the version
    // header — and a reopen must not write a second one.
    TempFile journal("append_fresh.ckpt");
    SweepEngine engine(testOptions());
    engine.enqueueRun("sobel", "baseline", tinyConfig());
    engine.enqueueRun("fft", "baseline", tinyConfig());
    const std::vector<SweepJob> jobs = engine.pending();
    const std::vector<SweepOutcome> outcomes = engine.execute();
    ASSERT_EQ(outcomes.size(), 2u);

    {
        SweepJournal first;
        ASSERT_TRUE(first.open(journal.path(), /*fresh=*/false).ok());
        first.append(SweepJournal::jobKey(jobs[0]), outcomes[0]);
        first.close();
    }
    {
        SweepJournal second;
        ASSERT_TRUE(second.open(journal.path(), /*fresh=*/false).ok());
        second.append(SweepJournal::jobKey(jobs[1]), outcomes[1]);
        second.close();
    }

    ASSERT_TRUE(SweepJournal::probe(journal.path()).ok());
    std::size_t skipped = 0;
    EXPECT_EQ(SweepJournal::load(journal.path(), &skipped).size(), 2u);
    EXPECT_EQ(skipped, 0u);

    const std::string contents = readFile(journal.path());
    std::size_t headers = 0;
    for (std::size_t at = contents.find("axmemo_sweep_journal");
         at != std::string::npos;
         at = contents.find("axmemo_sweep_journal", at + 1))
        ++headers;
    EXPECT_EQ(headers, 1u);
    EXPECT_EQ(contents.rfind("{\"axmemo_sweep_journal\"", 0), 0u);
}

TEST(SweepResume, ShardedWorkersPlusSegmentReplayMatchSerialRun)
{
    // Serial reference.
    SweepEngine serial(testOptions());
    enqueueMatrix(serial);
    const std::vector<SweepOutcome> reference = serial.execute();

    // Worker a drains the whole queue; worker b arrives afterwards
    // and finds only done markers.
    TempDir dir("shard_merge");
    ShardQueue qa(dir.path(), "a", 30.0);
    SweepEngine ea(testOptions());
    ea.setShardQueue(&qa);
    EXPECT_EQ(ea.setJournal(qa.journalPath(), /*resume=*/true), 0u);
    enqueueMatrix(ea);
    const std::vector<SweepOutcome> aOutcomes = ea.execute();
    ea.closeJournal(/*removeFile=*/false);

    ShardQueue qb(dir.path(), "b", 30.0);
    SweepEngine eb(testOptions());
    eb.setShardQueue(&qb);
    EXPECT_EQ(eb.setJournal(qb.journalPath(), /*resume=*/true), 0u);
    enqueueMatrix(eb);
    const std::vector<SweepOutcome> bOutcomes = eb.execute();
    eb.closeJournal(/*removeFile=*/false);

    ASSERT_EQ(aOutcomes.size(), reference.size());
    EXPECT_EQ(ea.metrics().foreignJobs, 0u);
    for (std::size_t i = 0; i < aOutcomes.size(); ++i)
        expectOutcomesEqual(aOutcomes[i], reference[i],
                            "worker-a job " + std::to_string(i));
    EXPECT_EQ(eb.metrics().foreignJobs, reference.size());
    for (const SweepOutcome &outcome : bOutcomes)
        EXPECT_EQ(outcome.status, JobStatus::Foreign);

    // Merge role: union every journal segment, replay instead of
    // re-simulating, and match the serial run outcome-for-outcome.
    SweepEngine merge(testOptions());
    EXPECT_EQ(merge.addReplaySegments(
                  ShardQueue::journalSegments(dir.path())),
              reference.size());
    enqueueMatrix(merge);
    const std::vector<SweepOutcome> merged = merge.execute();
    EXPECT_EQ(merge.metrics().restoredJobs, reference.size());
    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
        expectOutcomesEqual(merged[i], reference[i],
                            "merged job " + std::to_string(i));
}

} // namespace
} // namespace axmemo
