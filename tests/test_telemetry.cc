/**
 * @file
 * Span telemetry and fleet-status tests (DESIGN.md §13): span
 * nesting and the disabled fast path, the phase spans runArtifact
 * records (and that it records nothing when disarmed), the
 * Chrome-trace timeline contract (prefix/suffix, parseability,
 * per-process lanes), the merge stitcher, metrics snapshot lines, and
 * readFleetStatus over a synthetic shard directory. Spans are compiled
 * into every build, so all of these also run with the trace points
 * compiled out.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/artifact.hh"
#include "core/fleet_status.hh"
#include "core/json_value.hh"
#include "core/output_paths.hh"
#include "obs/telemetry.hh"

namespace axmemo {
namespace {

/** Self-cleaning scratch directory, same idiom as test_sweep_resume. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "axmemo_telemetry_" +
                name)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

    std::string
    sub(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
}

/** One plausible metrics snapshot line for synthetic shard dirs. */
std::string
snapshotLine(const std::string &worker, std::uint64_t jobsDone,
             std::uint64_t jobsTotal, double jobsPerS)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"worker\":\"%s\",\"ts\":1,\"uptime_s\":5,"
                  "\"jobs_done\":%llu,\"jobs_total\":%llu,"
                  "\"jobs_per_s\":%g,\"minstr_per_s\":2.5,"
                  "\"macro_insts\":1000,\"memo_hit_rate\":0.5,"
                  "\"lut_occupancy\":12,\"rss_bytes\":4096,"
                  "\"journal_lag_s\":0.1}\n",
                  worker.c_str(),
                  static_cast<unsigned long long>(jobsDone),
                  static_cast<unsigned long long>(jobsTotal), jobsPerS);
    return buf;
}

// ------------------------------------------------------------- spans

TEST(Telemetry, SpansNestThroughTheParentStack)
{
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    {
        AXM_SPAN("sweep", "outer");
        AXM_SPAN("job", "inner");
    }
    telemetry::setEnabled(false);

    const std::vector<telemetry::SpanEvent> events =
        telemetry::collectedEvents();
    telemetry::resetForTest();
    ASSERT_EQ(events.size(), 2u);
    // Inner closes first; it must point at outer as its parent.
    const telemetry::SpanEvent &inner = events[0];
    const telemetry::SpanEvent &outer = events[1];
    EXPECT_STREQ(inner.category, "job");
    EXPECT_STREQ(inner.name, "inner");
    EXPECT_STREQ(outer.category, "sweep");
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_EQ(inner.parent, outer.id);
    EXPECT_EQ(outer.parent, 0u);
    EXPECT_NE(inner.id, outer.id);
    EXPECT_GE(outer.durUs, inner.durUs);
}

TEST(Telemetry, DisabledSpansRecordNothing)
{
    telemetry::resetForTest();
    telemetry::setEnabled(false);
    {
        AXM_SPAN("sweep", "never");
        telemetry::counter("backlog", 7.0);
    }
    EXPECT_TRUE(telemetry::collectedEvents().empty());
    telemetry::resetForTest();
}

TEST(Telemetry, CountersCarryValueAndParent)
{
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    {
        AXM_SPAN("sweep", "round");
        telemetry::counter("occupancy", 42.5);
    }
    telemetry::setEnabled(false);

    const std::vector<telemetry::SpanEvent> events =
        telemetry::collectedEvents();
    telemetry::resetForTest();
    ASSERT_EQ(events.size(), 2u);
    const telemetry::SpanEvent &counter = events[0];
    EXPECT_EQ(counter.kind, telemetry::SpanEvent::Kind::Counter);
    EXPECT_STREQ(counter.name, "occupancy");
    EXPECT_DOUBLE_EQ(counter.value, 42.5);
    EXPECT_EQ(counter.parent, events[1].id);
}

// ------------------------------------------------------ phase spans

/** One tiny sweep (a sobel baseline run) behind the Artifact seam. */
class ProbeArtifact : public Artifact
{
  public:
    std::string name() const override { return "telemetry_probe"; }
    std::string title() const override { return ""; }
    std::string description() const override { return "test probe"; }

    void
    enqueue(SweepEngine &engine) override
    {
        ExperimentConfig config;
        config.dataset.scale = 0.01;
        engine.enqueueRun("sobel", "baseline", config);
    }

    ArtifactResult
    reduce(const std::vector<SweepOutcome> &) override
    {
        return {};
    }
};

ArtifactRunOptions
probeOptions(const TempDir &dir)
{
    ArtifactRunOptions options;
    options.outDir = dir.path();
    options.runtime.jobs = 1;
    options.runtime.reportTiming = false;
    return options;
}

TEST(Telemetry, DisarmedRunArtifactRecordsNothing)
{
    // `axmemo run` keeps no host timer of its own: with recording off,
    // a whole artifact pipeline leaves the event store empty.
    TempDir dir("disarmed");
    telemetry::resetForTest();
    telemetry::setEnabled(false);
    ProbeArtifact artifact;
    ASSERT_TRUE(runArtifact(artifact, probeOptions(dir)).ok());
    EXPECT_TRUE(telemetry::collectedEvents().empty());
    EXPECT_EQ(telemetry::droppedEvents(), 0u);
    telemetry::resetForTest();
}

TEST(Telemetry, ArmedRunArtifactRecordsEveryPhase)
{
    TempDir dir("armed");
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    ProbeArtifact artifact;
    ASSERT_TRUE(runArtifact(artifact, probeOptions(dir)).ok());
    telemetry::setEnabled(false);
    const std::string table = telemetry::renderPhaseTable();
    telemetry::resetForTest();
    for (const char *phase :
         {"artifact.enqueue", "artifact.execute", "artifact.reduce",
          "artifact.emit", "sweep.prepare", "sweep.prepare.job",
          "sweep.baseline", "sweep.baseline.job", "sweep.subject",
          "sweep.subject.job"})
        EXPECT_NE(table.find(std::string("\n") + phase + " "),
                  std::string::npos)
            << phase << "\n"
            << table;
}

// ---------------------------------------------------------- timeline

TEST(Telemetry, TimelineHonorsThePrefixSuffixContract)
{
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    {
        AXM_SPAN("phase", "render-test");
    }
    telemetry::setEnabled(false);

    const std::string doc = telemetry::renderTimeline("lane-a");
    telemetry::resetForTest();
    EXPECT_EQ(doc.rfind(telemetry::timelinePrefix, 0), 0u) << doc;
    ASSERT_GE(doc.size(), sizeof(telemetry::timelineSuffix) - 1);
    EXPECT_EQ(doc.substr(doc.size() -
                         (sizeof(telemetry::timelineSuffix) - 1)),
              telemetry::timelineSuffix)
        << doc;
    const Expected<JValue> parsed = parseJsonValue(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_NE(doc.find("\"lane-a\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"render-test\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos) << doc;
}

TEST(Telemetry, StitchMergesLanesAndCountsDamage)
{
    TempDir dir("stitch");
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    {
        AXM_SPAN("job", "first-lane");
    }
    const Expected<void> first = atomicWriteFile(
        dir.sub("timeline.w0.json"), telemetry::renderTimeline("w0"));
    ASSERT_TRUE(first.ok()) << first.error().describe();
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    {
        AXM_SPAN("job", "second-lane");
    }
    const Expected<void> second = atomicWriteFile(
        dir.sub("timeline.w1.json"), telemetry::renderTimeline("w1"));
    ASSERT_TRUE(second.ok()) << second.error().describe();
    telemetry::setEnabled(false);
    telemetry::resetForTest();
    writeFile(dir.sub("timeline.bad.json"), "not a timeline");

    std::size_t damaged = 0;
    const std::string stitched = stitchTimelines(
        {dir.sub("timeline.w0.json"), dir.sub("timeline.w1.json"),
         dir.sub("timeline.bad.json")},
        {}, &damaged);
    EXPECT_EQ(damaged, 1u);
    const Expected<JValue> parsed = parseJsonValue(stitched);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_NE(stitched.find("\"w0\""), std::string::npos);
    EXPECT_NE(stitched.find("\"w1\""), std::string::npos);
    EXPECT_NE(stitched.find("first-lane"), std::string::npos);
    EXPECT_NE(stitched.find("second-lane"), std::string::npos);
}

// ---------------------------------------------------------- snapshots

TEST(Telemetry, SnapshotLinesAppendOnHeartbeat)
{
    TempDir dir("snapshot");
    telemetry::resetForTest();
    telemetry::metrics().jobsTotal.store(10);
    telemetry::metrics().jobsDone.store(3);
    telemetry::metrics().memoLookups.store(100);
    telemetry::metrics().memoHits.store(40);
    // setSnapshotPath writes an immediate first line; heartbeat a second.
    telemetry::setSnapshotPath(dir.sub("metrics.w7.jsonl"), "w7");
    telemetry::metrics().jobsDone.store(5);
    telemetry::heartbeat();
    telemetry::setSnapshotPath("", "");

    std::ifstream in(dir.sub("metrics.w7.jsonl"));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    ASSERT_GE(lines.size(), 2u);
    const Expected<JValue> last = parseJsonValue(lines.back());
    ASSERT_TRUE(last.ok()) << lines.back();
    const JValue &snap = last.value();
    const auto num = [&](const char *key) {
        const JValue *member = snap.find(key);
        return member ? jsonNumber(*member, key).value() : -1.0;
    };
    ASSERT_NE(snap.find("worker"), nullptr);
    EXPECT_EQ(snap.find("worker")->token, "w7");
    EXPECT_DOUBLE_EQ(num("jobs_done"), 5.0);
    EXPECT_DOUBLE_EQ(num("jobs_total"), 10.0);
    EXPECT_DOUBLE_EQ(num("memo_hit_rate"), 0.4);
    EXPECT_GT(num("rss_bytes"), 0.0);
    telemetry::resetForTest();
}

// -------------------------------------------------------- fleet status

TEST(FleetStatus, MissingDirectoryYieldsEmptyFleet)
{
    const FleetStatus fleet =
        readFleetStatus("/nonexistent/axmemo/shards", 30.0);
    EXPECT_TRUE(fleet.workers.empty());
    EXPECT_EQ(fleet.jobsDone, 0u);
    EXPECT_EQ(fleet.jobsTotal, 0u);
    // Renderers must cope with an empty fleet (status is pollable
    // before the first worker arrives).
    EXPECT_FALSE(renderFleetText(fleet).empty());
    const Expected<JValue> json = parseJsonValue(renderFleetJson(fleet));
    EXPECT_TRUE(json.ok());
}

TEST(FleetStatus, ClassifiesWorkersFromShardArtifacts)
{
    TempDir dir("fleet");
    std::filesystem::create_directories(dir.sub("claims"));

    // w0: fresh snapshot + a live claim -> Running.
    writeFile(dir.sub("metrics.w0.jsonl"),
              snapshotLine("w0", 3, 8, 1.5));
    writeFile(dir.sub("claims/abc123.claim"),
              "{\"key\":\"fig9|cfg=1\",\"worker\":\"w0\"}");
    // w1: manifest written -> Done, contributes the failed count.
    writeFile(dir.sub("metrics.w1.jsonl"),
              snapshotLine("w1", 4, 8, 0.0));
    writeFile(dir.sub("shard.w1.json"),
              "{\"worker\":\"w1\",\"claimed\":4,\"failed\":2}");
    // Two done markers: fleet ground truth for progress.
    writeFile(dir.sub("claims/abc123.done"), "{}");
    writeFile(dir.sub("claims/def456.done"), "{}");

    const FleetStatus fleet = readFleetStatus(dir.path(), 30.0);
    ASSERT_EQ(fleet.workers.size(), 2u);
    EXPECT_EQ(fleet.jobsTotal, 8u);
    EXPECT_EQ(fleet.jobsDone, 2u);
    EXPECT_EQ(fleet.jobsFailed, 2u);

    const WorkerStatus *w0 = nullptr;
    const WorkerStatus *w1 = nullptr;
    for (const WorkerStatus &w : fleet.workers) {
        if (w.id == "w0")
            w0 = &w;
        if (w.id == "w1")
            w1 = &w;
    }
    ASSERT_NE(w0, nullptr);
    ASSERT_NE(w1, nullptr);
    EXPECT_EQ(w0->state, WorkerStatus::State::Running);
    EXPECT_EQ(w0->claimsHeld, 1u);
    EXPECT_DOUBLE_EQ(w0->jobsPerSecond, 1.5);
    EXPECT_EQ(w1->state, WorkerStatus::State::Done);

    ASSERT_EQ(fleet.watchlist.size(), 1u);
    EXPECT_EQ(fleet.watchlist[0].key, "fig9|cfg=1");
    EXPECT_EQ(fleet.watchlist[0].worker, "w0");

    // ETA: 6 jobs left at 1.5 jobs/s from the one live worker.
    EXPECT_NEAR(fleet.etaSeconds, 4.0, 0.5);

    // Both renderers must carry the classification.
    const std::string text = renderFleetText(fleet);
    EXPECT_NE(text.find("running"), std::string::npos) << text;
    EXPECT_NE(text.find("done"), std::string::npos) << text;
    const std::string json = renderFleetJson(fleet);
    const Expected<JValue> parsed = parseJsonValue(json);
    ASSERT_TRUE(parsed.ok()) << json;
    EXPECT_NE(json.find("\"jobs_done\":2"), std::string::npos) << json;
}

TEST(FleetStatus, ReportsStalledWhenThroughputIsZero)
{
    TempDir dir("stalled");
    std::filesystem::create_directories(dir.sub("claims"));
    // A live worker with jobs remaining whose EWMA rate has decayed
    // to zero: the ETA is unknowable yet the fleet is not done.
    writeFile(dir.sub("metrics.w0.jsonl"),
              snapshotLine("w0", 2, 8, 0.0));
    writeFile(dir.sub("claims/abc123.done"), "{}");

    const FleetStatus fleet = readFleetStatus(dir.path(), 30.0);
    EXPECT_EQ(fleet.jobsTotal, 8u);
    EXPECT_EQ(fleet.jobsDone, 1u);
    EXPECT_DOUBLE_EQ(fleet.aggregateJobsPerSecond, 0.0);
    EXPECT_TRUE(fleet.stalled);
    EXPECT_DOUBLE_EQ(fleet.etaSeconds, -1.0);

    const std::string text = renderFleetText(fleet);
    EXPECT_NE(text.find("ETA stalled"), std::string::npos) << text;
    const std::string json = renderFleetJson(fleet);
    EXPECT_NE(json.find("\"stalled\":true"), std::string::npos) << json;

    // A healthy fleet must not report the stall.
    writeFile(dir.sub("metrics.w0.jsonl"),
              snapshotLine("w0", 2, 8, 1.0));
    const FleetStatus moving = readFleetStatus(dir.path(), 30.0);
    EXPECT_FALSE(moving.stalled);
    EXPECT_GT(moving.etaSeconds, 0.0);
    EXPECT_NE(renderFleetJson(moving).find("\"stalled\":false"),
              std::string::npos);
}

TEST(FleetStatus, StaleSnapshotWithoutManifestIsDead)
{
    TempDir dir("dead");
    std::filesystem::create_directories(dir.sub("claims"));
    writeFile(dir.sub("metrics.w9.jsonl"),
              snapshotLine("w9", 1, 4, 0.5));
    // A tiny lease window makes the just-written snapshot "stale".
    const FleetStatus fleet = readFleetStatus(dir.path(), 1e-9);
    ASSERT_EQ(fleet.workers.size(), 1u);
    EXPECT_EQ(fleet.workers[0].state, WorkerStatus::State::Dead);
}

TEST(FleetStatus, DescendsIntoTheShardsSubdirectory)
{
    TempDir dir("rundir");
    std::filesystem::create_directories(dir.sub("shards/claims"));
    writeFile(dir.sub("shards/metrics.w0.jsonl"),
              snapshotLine("w0", 2, 4, 1.0));
    const FleetStatus fleet = readFleetStatus(dir.path(), 30.0);
    ASSERT_EQ(fleet.workers.size(), 1u);
    EXPECT_EQ(fleet.workers[0].id, "w0");
    EXPECT_EQ(fleet.dir, dir.sub("shards"));
}

} // namespace
} // namespace axmemo
