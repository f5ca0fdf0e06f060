/**
 * @file
 * Telemetry collection: timeline export, the phase table and
 * per-worker metrics snapshots (DESIGN.md §13).
 *
 * The collector drains every thread's span ring (obs/span.hh) into a
 * process-wide store, which two readers render:
 *
 *  - The **timeline exporter** renders the store as Chrome-trace /
 *    Perfetto JSON (`{"traceEvents":[...],"displayTimeUnit":"ms"}`):
 *    one process lane per worker process (pid + process_name
 *    metadata), one thread track per sweep worker, "X" complete events
 *    for spans and "C" events for counters. `axmemo run
 *    --trace-timeline <file>` writes one file per process; `axmemo
 *    merge` stitches the per-worker files into a single fleet timeline
 *    (src/core/fleet_status.cc).
 *
 *  - The **phase table** aggregates the "phase" spans per phase and
 *    per worker thread — the `axmemo profile` report.
 *
 * Beside them, the **metrics snapshotter** turns a handful of
 * always-on relaxed counters (jobs done, macro-instructions, memo
 * hits, LUT occupancy) into periodic JSONL snapshots
 * (`<shard-dir>/metrics.<worker>.jsonl`), appended one whole line at a
 * time on the shard-lease heartbeat cadence so `axmemo status` can
 * read fleet throughput without touching the workers.
 *
 * Like the rest of obs, this layer depends on nothing outside
 * src/obs and the C++ standard library.
 */

#ifndef AXMEMO_OBS_TELEMETRY_HH
#define AXMEMO_OBS_TELEMETRY_HH

#include "obs/span.hh"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace axmemo {
namespace telemetry {

/** Exact first/last bytes of every timeline file. The merge stitcher
 * relies on these to splice per-worker traceEvents arrays textually. */
constexpr char timelinePrefix[] = "{\"traceEvents\":[\n";
constexpr char timelineSuffix[] = "\n],\"displayTimeUnit\":\"ms\"}\n";

/** Drain every span ring into the process-wide event store. Cheap when
 * nothing new was recorded; every reader below calls it first. */
void collect();

/** Copy of the collected event store (drains first). Test hook. */
std::vector<SpanEvent> collectedEvents();

/** Events lost to ring overflow since process start (drains first). */
std::uint64_t droppedEvents();

/**
 * Render the collected spans as a complete Chrome-trace JSON document.
 * @p processLabel names this process's lane in the merged view (the
 * worker id for shard workers, the artifact/run name otherwise).
 */
std::string renderTimeline(const std::string &processLabel);

/**
 * Render the "phase" spans closed since the previous call (the first
 * call covers all so far) as the `axmemo profile` table: per phase, in
 * first-close order, the call count, total seconds and share of the
 * longest phase, then one `[wN]` row per labelled worker thread that
 * closed it. A footer counts the events lost to ring overflow in the
 * same window, when there were any.
 */
std::string renderPhaseTable();

/**
 * Always-on run counters feeding the metrics snapshots. Relaxed
 * atomic adds at job granularity — never on the instruction path —
 * so they stay on even when span recording is off.
 */
struct MetricsCounters
{
    std::atomic<std::uint64_t> jobsDone{0};
    std::atomic<std::uint64_t> jobsTotal{0};
    std::atomic<std::uint64_t> macroInsts{0};
    std::atomic<std::uint64_t> memoLookups{0};
    std::atomic<std::uint64_t> memoHits{0};
    /** Occupied L2 LUT lines summed over completed jobs (mean per-job
     * occupancy = lutLinesSum / lutLinesSamples). */
    std::atomic<std::uint64_t> lutLinesSum{0};
    std::atomic<std::uint64_t> lutLinesSamples{0};
    /** detail::nowUs() of the most recent journal append (0 = never);
     * snapshot field journal_lag_s measures staleness from it. */
    std::atomic<std::uint64_t> lastJournalAppendUs{0};
};

/** The process-wide counter block. */
MetricsCounters &metrics();

/** Stamp "the journal was appended to just now" (feeds the snapshot
 * journal_lag_s field — a worker whose lag keeps growing is wedged). */
inline void
noteJournalAppend()
{
    metrics().lastJournalAppendUs.store(detail::nowUs(),
                                        std::memory_order_relaxed);
}

/**
 * Route heartbeat() snapshots to @p path, labelled @p workerId, and
 * write an immediate first snapshot so the file exists as soon as the
 * worker joins the fleet. Empty @p path disables snapshots.
 */
void setSnapshotPath(const std::string &path, const std::string &workerId);

/**
 * Append one metrics snapshot line to the configured JSONL file (one
 * whole line per fwrite in append mode, so concurrent readers never
 * see a torn record). No-op without a configured path. Called from
 * the shard-lease heartbeat thread.
 */
void heartbeat();

/** Render one snapshot line (no trailing newline). Exposed for tests;
 * heartbeat() appends exactly this plus '\n'. */
std::string renderSnapshotLine();

/** Reset collected events, drop counts, metrics and snapshot state —
 * test isolation only. */
void resetForTest();

} // namespace telemetry
} // namespace axmemo

#endif // AXMEMO_OBS_TELEMETRY_HH
