/**
 * @file
 * Unit tests for the observability subsystem (src/obs): distribution
 * statistics and the stats.txt/JSON renderers, gem5-style debug flags
 * and the trace sink, the `axmemo profile` phase table built from
 * "phase" spans, and the shared line writer.
 *
 * Trace-behavior tests (flag guards, emitted lines) are compiled out
 * under AXMEMO_NO_TRACE, where enabled() is constexpr false by design;
 * the statistics and phase-table tests run in both configurations.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace axmemo {
namespace {

// Only the trace-file tests (compiled out under AXMEMO_NO_TRACE) read
// files back; keep -Werror clean on that leg.
[[maybe_unused]] std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// -------------------------------------------------------- Distribution

TEST(Distribution, LinearBucketsAndExactMoments)
{
    Distribution d(0, 9, 2); // five buckets: [0,1] [2,3] ... [8,9]
    ASSERT_EQ(d.buckets().size(), 5u);
    for (std::uint64_t v = 0; v < 10; ++v)
        d.sample(v);
    EXPECT_EQ(d.count(), 10u);
    EXPECT_EQ(d.sum(), 45u);
    EXPECT_DOUBLE_EQ(d.mean(), 4.5);
    EXPECT_EQ(d.sampleMin(), 0u);
    EXPECT_EQ(d.sampleMax(), 9u);
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_EQ(d.overflow(), 0u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(d.buckets()[i], 2u) << "bucket " << i;
        EXPECT_EQ(d.bucketLow(i), 2 * i);
    }
}

TEST(Distribution, UnderflowAndOverflowBins)
{
    Distribution d(10, 19, 5);
    d.sample(3);
    d.sample(100, 2);
    d.sample(12);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 2u);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.sum(), 3u + 200u + 12u);
    EXPECT_EQ(d.sampleMin(), 3u);
    EXPECT_EQ(d.sampleMax(), 100u);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.buckets()[1], 0u);
}

TEST(Distribution, WeightedSamplesAndStddev)
{
    // Population {2,4,4,4,5,5,7,9} has mean 5 and stddev exactly 2.
    Distribution d(0, 15, 1);
    d.sample(2);
    d.sample(4, 3);
    d.sample(5, 2);
    d.sample(7);
    d.sample(9);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-12);
}

TEST(Distribution, MergeMatchesCombinedSampling)
{
    Distribution a(0, 31, 4), b(0, 31, 4), all(0, 31, 4);
    for (std::uint64_t v : {1u, 5u, 5u, 17u, 40u}) {
        a.sample(v);
        all.sample(v);
    }
    for (std::uint64_t v : {0u, 9u, 31u}) {
        b.sample(v);
        all.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.sampleMin(), all.sampleMin());
    EXPECT_EQ(a.sampleMax(), all.sampleMax());
    EXPECT_EQ(a.overflow(), all.overflow());
    for (std::size_t i = 0; i < a.buckets().size(); ++i)
        EXPECT_EQ(a.buckets()[i], all.buckets()[i]) << "bucket " << i;
}

TEST(Distribution, ResetKeepsGeometry)
{
    Distribution d(8, 23, 4);
    d.sample(9, 7);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0u);
    EXPECT_EQ(d.lo(), 8u);
    EXPECT_EQ(d.hi(), 23u);
    EXPECT_EQ(d.bucketSize(), 4u);
    EXPECT_EQ(d.buckets().size(), 4u);
}

// ----------------------------------------------------------- Histogram

TEST(Histogram, PowerOfTwoBuckets)
{
    Histogram h;
    h.sample(0);       // bucket 0
    h.sample(1);       // bucket 1: [1,1]
    h.sample(2);       // bucket 2: [2,3]
    h.sample(3);       // bucket 2
    h.sample(4);       // bucket 3: [4,7]
    h.sample(16, 5);   // bucket 5: [16,31]
    h.sample(31);      // bucket 5
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 2u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.buckets()[4], 0u);
    EXPECT_EQ(h.buckets()[5], 6u);
    EXPECT_EQ(h.count(), 11u);
    EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 5 * 16 + 31);
    EXPECT_EQ(h.sampleMin(), 0u);
    EXPECT_EQ(h.sampleMax(), 31u);
}

TEST(Histogram, BucketRangesCoverEveryValue)
{
    EXPECT_EQ(Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Histogram::bucketHigh(0), 0u);
    EXPECT_EQ(Histogram::bucketLow(1), 1u);
    EXPECT_EQ(Histogram::bucketHigh(1), 1u);
    EXPECT_EQ(Histogram::bucketLow(5), 16u);
    EXPECT_EQ(Histogram::bucketHigh(5), 31u);
    // Adjacent buckets tile the value space with no gap or overlap.
    for (std::size_t i = 1; i + 1 < Histogram::numBuckets; ++i)
        EXPECT_EQ(Histogram::bucketLow(i + 1),
                  Histogram::bucketHigh(i) + 1)
            << "bucket " << i;
    EXPECT_EQ(Histogram::bucketHigh(Histogram::numBuckets - 1),
              ~std::uint64_t{0});
}

TEST(Histogram, MergeAddsEverything)
{
    Histogram a, b;
    a.sample(3, 2);
    b.sample(100);
    b.sample(0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 106u);
    EXPECT_EQ(a.sampleMin(), 0u);
    EXPECT_EQ(a.sampleMax(), 100u);
}

// ------------------------------------------------------------- StatSet

TEST(StatSet, RenderTextRowsAndSumCrossCheck)
{
    StatSet set;
    set.scalar("alpha", 7, "a scalar");
    set.formula("beta", 0.25);
    Distribution d(0, 3, 1);
    d.sample(1);
    d.sample(2, 2);
    set.dist("gamma", d, "a distribution");
    Histogram h;
    h.sample(5, 4);
    set.hist("delta", h);

    const std::string text = set.renderText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("# a scalar"), std::string::npos);
    EXPECT_NE(text.find("gamma::samples"), std::string::npos);
    // The ::sum row lets stats.txt consumers cross-check a distribution
    // against its scalar twin without recomputing from bucket ranges.
    EXPECT_NE(text.find("gamma::sum"), std::string::npos);
    EXPECT_NE(text.find("gamma::mean"), std::string::npos);
    EXPECT_NE(text.find("gamma::total"), std::string::npos);
    EXPECT_NE(text.find("delta::sum"), std::string::npos);
    EXPECT_NE(text.find("delta::4-7"), std::string::npos);

    const std::string section = set.renderSection("unit test");
    EXPECT_EQ(section.rfind("---------- Begin Simulation Statistics "
                            "---------- # unit test\n",
                            0),
              0u);
    EXPECT_NE(section.find("---------- End Simulation Statistics"),
              std::string::npos);
}

TEST(StatSet, RenderJsonShapes)
{
    StatSet set;
    set.scalar("alpha", 7);
    set.formula("beta", 0.5);
    Distribution d(0, 3, 1);
    d.sample(2, 3);
    d.sample(9);
    set.dist("gamma", d);

    const std::string json = set.renderJson();
    EXPECT_NE(json.find("\"alpha\":7"), std::string::npos) << json;
    EXPECT_NE(json.find("\"beta\":0.5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"gamma\":{\"samples\":4,\"sum\":15"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"overflow\":1"), std::string::npos) << json;
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(Distribution, UnconfiguredRoutesEverythingToUnderflow)
{
    // A default-constructed distribution has no buckets; samples must
    // still be counted exactly (count/sum/min/max), landing in the
    // underflow bin rather than crashing or vanishing.
    Distribution d;
    d.sample(5);
    d.sample(100, 2);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.sum(), 205u);
    EXPECT_EQ(d.underflow(), 3u);
    EXPECT_EQ(d.overflow(), 0u);
    EXPECT_EQ(d.sampleMin(), 5u);
    EXPECT_EQ(d.sampleMax(), 100u);
    EXPECT_TRUE(d.buckets().empty());
}

TEST(StatSet, EmptyDistributionRendersZeroRowsOnly)
{
    StatSet set;
    Distribution d(0, 7, 2);
    set.dist("empty", d, "never sampled");

    const std::string text = set.renderText();
    EXPECT_NE(text.find("empty::samples"), std::string::npos) << text;
    EXPECT_NE(text.find("empty::total"), std::string::npos) << text;
    // Zero-count bins are suppressed: no bucket, underflow or overflow
    // rows for a distribution that never saw a sample.
    EXPECT_EQ(text.find("empty::underflows"), std::string::npos) << text;
    EXPECT_EQ(text.find("empty::overflows"), std::string::npos) << text;
    EXPECT_EQ(text.find("empty::0-1"), std::string::npos) << text;

    const std::string json = set.renderJson();
    EXPECT_NE(json.find("\"empty\":{\"samples\":0,\"sum\":0"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"buckets\":{}"), std::string::npos) << json;
}

TEST(StatSet, SingleBucketHistogramLabels)
{
    // Histogram buckets 0 and 1 hold exactly one value each, so their
    // stats.txt labels are a bare number — the range dash only appears
    // from bucket 2 ([2,3]) upward.
    StatSet set;
    Histogram h;
    h.sample(0, 3);
    set.hist("streak", h);

    const std::string text = set.renderText();
    EXPECT_NE(text.find("streak::samples"), std::string::npos) << text;
    EXPECT_NE(text.find("streak::0 "), std::string::npos) << text;
    EXPECT_EQ(text.find("streak::0-"), std::string::npos) << text;

    StatSet one;
    Histogram h1;
    h1.sample(1, 5);
    one.hist("streak", h1);
    const std::string text1 = one.renderText();
    EXPECT_NE(text1.find("streak::1 "), std::string::npos) << text1;
    EXPECT_EQ(text1.find("streak::1-"), std::string::npos) << text1;
}

TEST(StatSet, OverflowBucketCountingInTextAndJson)
{
    StatSet set;
    Distribution d(10, 19, 5);
    d.sample(2);      // below lo -> underflow
    d.sample(25, 2);  // above hi -> overflow
    d.sample(12);     // in range
    set.dist("span", d);

    const std::string text = set.renderText();
    EXPECT_NE(text.find("span::underflows"), std::string::npos) << text;
    EXPECT_NE(text.find("span::overflows"), std::string::npos) << text;
    EXPECT_NE(text.find("span::10-14"), std::string::npos) << text;

    const std::string json = set.renderJson();
    EXPECT_NE(json.find("\"underflow\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"overflow\":2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"samples\":4"), std::string::npos) << json;
}

// ---------------------------------------------------------- debug flags

TEST(TraceFlags, NamesAreUniqueAndParseable)
{
    std::set<std::string> names;
    for (unsigned i = 0; i < trace::numFlags; ++i) {
        const char *name = trace::flagName(static_cast<trace::Flag>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate flag name '" << name << "'";
        EXPECT_TRUE(trace::enableFlags(name)) << name;
    }
    trace::clearAllFlags();
}

TEST(TraceFlags, UnknownNameIsRejectedWithDiagnostic)
{
    std::string error;
    EXPECT_FALSE(trace::enableFlags("Exec,Bogus", &error));
    EXPECT_NE(error.find("unknown debug flag 'Bogus'"),
              std::string::npos)
        << error;
    trace::clearAllFlags();
}

#ifndef AXMEMO_NO_TRACE

TEST(TraceFlags, SetAndClear)
{
    trace::clearAllFlags();
    EXPECT_FALSE(trace::anyEnabled());
    trace::setFlag(trace::Flag::Memo, true);
    EXPECT_TRUE(trace::enabled(trace::Flag::Memo));
    EXPECT_FALSE(trace::enabled(trace::Flag::Exec));
    EXPECT_TRUE(trace::anyEnabled());
    trace::setFlag(trace::Flag::Memo, false);
    EXPECT_FALSE(trace::anyEnabled());
}

TEST(TraceFlags, SpecIsCaseInsensitiveAndAdditive)
{
    trace::clearAllFlags();
    EXPECT_TRUE(trace::enableFlags("exec,MEMO"));
    EXPECT_TRUE(trace::enabled(trace::Flag::Exec));
    EXPECT_TRUE(trace::enabled(trace::Flag::Memo));
    EXPECT_FALSE(trace::enabled(trace::Flag::Cache));
    EXPECT_TRUE(trace::enableFlags("cache"));
    EXPECT_TRUE(trace::enabled(trace::Flag::Exec)); // still on
    EXPECT_TRUE(trace::enabled(trace::Flag::Cache));
    trace::clearAllFlags();
    EXPECT_TRUE(trace::enableFlags("all"));
    for (unsigned i = 0; i < trace::numFlags; ++i)
        EXPECT_TRUE(trace::enabled(static_cast<trace::Flag>(i)));
    trace::clearAllFlags();
}

TEST(Trace, DisabledPointEvaluatesNoArguments)
{
    trace::clearAllFlags();
    int evaluations = 0;
    const auto touch = [&evaluations] {
        ++evaluations;
        return 1;
    };
    AXM_TRACE(Exec, "test", "value ", touch());
    EXPECT_EQ(evaluations, 0);
}

TEST(Trace, LineFormatCycleComponentMessage)
{
    const std::string path =
        testing::TempDir() + "axmemo_test_trace_format.txt";
    ASSERT_TRUE(trace::openTraceFile(path));
    trace::setFlag(trace::Flag::Memo, true);
    trace::setCycle(123);
    AXM_TRACE(Memo, "memo", "hit lut ", 4, " hash=", trace::hex(0xbeef));
    trace::setCycle(0);
    trace::clearAllFlags();
    trace::closeTraceFile();

    EXPECT_EQ(slurp(path), "       123: memo: hit lut 4 hash=0xbeef\n");
    std::remove(path.c_str());
}

TEST(Trace, WorkerLabelAppearsInLines)
{
    const std::string path =
        testing::TempDir() + "axmemo_test_trace_label.txt";
    ASSERT_TRUE(trace::openTraceFile(path));
    trace::setFlag(trace::Flag::Sweep, true);
    std::thread worker([] {
        obs::setThreadLabel(2);
        trace::setCycle(7);
        AXM_TRACE(Sweep, "sweep", "job done");
        obs::clearThreadLabel();
    });
    worker.join();
    trace::clearAllFlags();
    trace::closeTraceFile();

    EXPECT_EQ(slurp(path), "         7: [w2] sweep: job done\n");
    std::remove(path.c_str());
}

#endif // AXMEMO_NO_TRACE

// ------------------------------------------------------------ obs sink

TEST(ObsSink, LogLineAppendsNewlineAndThreadLabel)
{
    EXPECT_STREQ(obs::threadLabel(), "");
    testing::internal::CaptureStderr();
    obs::logLine(stderr, "plain line");
    std::thread worker([] {
        obs::setThreadLabel(7);
        EXPECT_STREQ(obs::threadLabel(), "w7");
        obs::logLine(stderr, "labelled line\n");
        obs::clearThreadLabel();
        EXPECT_STREQ(obs::threadLabel(), "");
    });
    worker.join();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "plain line\n[w7] labelled line\n");
}

// --------------------------------------------------------- phase table

/** One parsed phase-table row: name (or "[wN]") and its call count. */
struct TableRow
{
    std::string name;
    unsigned long long calls = 0;
    bool worker = false;
};

/** The rows of a renderPhaseTable() document, header and footer
 * excluded, in printed order. */
std::vector<TableRow>
tableRows(const std::string &table)
{
    std::vector<TableRow> rows;
    std::istringstream in(table);
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '(')
            continue;
        TableRow row;
        std::istringstream fields(line);
        fields >> row.name >> row.calls;
        row.worker = row.name[0] == '[';
        rows.push_back(row);
    }
    return rows;
}

/** Record @p body's spans into a fresh store and return the table. */
template <typename Body>
std::string
phaseTableOf(Body body)
{
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    body();
    telemetry::setEnabled(false);
    const std::string table = telemetry::renderPhaseTable();
    telemetry::resetForTest();
    return table;
}

TEST(PhaseTable, CountsCallsInFirstCloseOrder)
{
    const std::string table = phaseTableOf([] {
        {
            AXM_SPAN("phase", "obs.test.outer");
            AXM_SPAN("phase", "obs.test.inner"); // closes first
        }
        {
            AXM_SPAN("phase", "obs.test.outer");
        }
    });
    EXPECT_EQ(table.rfind("phase ", 0), 0u) << table;
    const std::vector<TableRow> rows = tableRows(table);
    ASSERT_EQ(rows.size(), 2u) << table;
    EXPECT_EQ(rows[0].name, "obs.test.inner");
    EXPECT_EQ(rows[0].calls, 1u);
    EXPECT_EQ(rows[1].name, "obs.test.outer");
    EXPECT_EQ(rows[1].calls, 2u);
    EXPECT_EQ(table.find("lost"), std::string::npos) << table;
}

TEST(PhaseTable, SplitsWorkerRowsAndMergesTheirTotal)
{
    const std::string table = phaseTableOf([] {
        {
            AXM_SPAN("phase", "obs.test.threaded");
        }
        const auto onWorker = [](unsigned index, int spans) {
            std::thread worker([index, spans] {
                obs::setThreadLabel(index);
                for (int i = 0; i < spans; ++i) {
                    AXM_SPAN("phase", "obs.test.threaded");
                }
                obs::clearThreadLabel();
            });
            worker.join();
        };
        onWorker(3, 2);
        onWorker(5, 1);
    });
    const std::vector<TableRow> rows = tableRows(table);
    ASSERT_EQ(rows.size(), 3u) << table;
    // The merged row counts every thread, the main one included; the
    // main thread gets no row of its own.
    EXPECT_EQ(rows[0].name, "obs.test.threaded");
    EXPECT_EQ(rows[0].calls, 4u);
    EXPECT_EQ(rows[1].name, "[w3]");
    EXPECT_EQ(rows[1].calls, 2u);
    EXPECT_EQ(rows[2].name, "[w5]");
    EXPECT_EQ(rows[2].calls, 1u);
}

TEST(PhaseTable, CountsOnlyPhaseSpans)
{
    const std::string table = phaseTableOf([] {
        {
            AXM_SPAN("job", "obs.test.job");
            AXM_SPAN("phase", "obs.test.counted");
            telemetry::counter("obs.test.counter", 1.0);
        }
        {
            AXM_SPAN("sweep", "obs.test.sweep");
        }
    });
    const std::vector<TableRow> rows = tableRows(table);
    ASSERT_EQ(rows.size(), 1u) << table;
    EXPECT_EQ(rows[0].name, "obs.test.counted");
    EXPECT_EQ(rows[0].calls, 1u);
}

TEST(PhaseTable, SecondTableCoversOnlyLaterSpans)
{
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    {
        AXM_SPAN("phase", "obs.test.first");
    }
    const std::string first = telemetry::renderPhaseTable();
    {
        AXM_SPAN("phase", "obs.test.second");
    }
    const std::string second = telemetry::renderPhaseTable();
    telemetry::setEnabled(false);
    const std::string third = telemetry::renderPhaseTable();
    // The spans stay collected for the timeline.
    EXPECT_EQ(telemetry::collectedEvents().size(), 2u);
    telemetry::resetForTest();

    const std::vector<TableRow> firstRows = tableRows(first);
    ASSERT_EQ(firstRows.size(), 1u) << first;
    EXPECT_EQ(firstRows[0].name, "obs.test.first");
    const std::vector<TableRow> secondRows = tableRows(second);
    ASSERT_EQ(secondRows.size(), 1u) << second;
    EXPECT_EQ(secondRows[0].name, "obs.test.second");
    EXPECT_NE(third.find("(no phases recorded)"), std::string::npos)
        << third;
}

TEST(PhaseTable, ReportsEventsLostToRingOverflow)
{
    // A fresh thread owns an empty ring of 16,384 slots; nothing
    // drains it while the thread runs, so the last 10 spans are lost.
    constexpr int ringSlots = 1 << 14;
    const std::string table = phaseTableOf([] {
        std::thread worker([] {
            obs::setThreadLabel(1);
            for (int i = 0; i < ringSlots + 10; ++i) {
                AXM_SPAN("phase", "obs.test.flood");
            }
            obs::clearThreadLabel();
        });
        worker.join();
    });
    const std::vector<TableRow> rows = tableRows(table);
    ASSERT_EQ(rows.size(), 2u) << table;
    EXPECT_EQ(rows[0].calls, static_cast<unsigned long long>(ringSlots));
    EXPECT_NE(table.find("(10 span events lost to ring overflow"),
              std::string::npos)
        << table;
}

} // namespace
} // namespace axmemo
