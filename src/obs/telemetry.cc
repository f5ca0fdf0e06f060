#include "obs/telemetry.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>

#include <unistd.h>

#include "obs/json_escape.hh"

namespace axmemo {
namespace telemetry {

namespace {

/** Collected-event store: everything drained from the span rings so
 * far, in drain order. One mutex guards store + snapshot state. */
struct Store
{
    std::mutex mutex;
    std::vector<SpanEvent> events;
    std::uint64_t dropped = 0;

    // Where the previous phase table stopped: events before this index
    // and drops up to this count are already reported.
    std::size_t tableCursor = 0;
    std::uint64_t tableDropped = 0;

    // Metrics-snapshot routing + EWMA state (heartbeat cadence).
    std::string snapshotPath;
    std::string workerId;
    std::uint64_t lastBeatUs = 0;
    std::uint64_t lastJobs = 0;
    std::uint64_t lastInsts = 0;
    double ewmaJobsPerS = -1.0;
    double ewmaMinstrPerS = -1.0;
};

Store &
store()
{
    static Store s;
    return s;
}

void
collectLocked(Store &s)
{
    s.dropped += detail::drainAll(s.events);
}

void
appendDouble(std::string &out, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out += buf;
}

/**
 * Map thread labels to Chrome-trace tids: the unlabelled main thread
 * is tid 0, worker labels get 1.. in sorted order so tracks render in
 * a stable order regardless of drain interleaving.
 */
std::map<std::string, int>
tidTable(const std::vector<SpanEvent> &events)
{
    std::map<std::string, int> tids;
    tids[""] = 0;
    for (const SpanEvent &event : events)
        tids.emplace(event.thread, 0);
    int next = 1;
    for (auto &entry : tids) {
        if (!entry.first.empty())
            entry.second = next++;
    }
    return tids;
}

/** Resident set size in bytes from /proc/self/statm (0 if unknown). */
std::uint64_t
residentBytes()
{
    std::uint64_t pages = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        unsigned long long total = 0, resident = 0;
        if (std::fscanf(f, "%llu %llu", &total, &resident) == 2)
            pages = resident;
        std::fclose(f);
    }
    const long pageSize = ::sysconf(_SC_PAGESIZE);
    return pages * static_cast<std::uint64_t>(pageSize > 0 ? pageSize : 4096);
}

std::string
renderSnapshotLineLocked(Store &s)
{
    MetricsCounters &m = metrics();
    const std::uint64_t nowUs = detail::nowUs();
    const std::uint64_t jobsDone =
        m.jobsDone.load(std::memory_order_relaxed);
    const std::uint64_t jobsTotal =
        m.jobsTotal.load(std::memory_order_relaxed);
    const std::uint64_t insts = m.macroInsts.load(std::memory_order_relaxed);
    const std::uint64_t lookups =
        m.memoLookups.load(std::memory_order_relaxed);
    const std::uint64_t hits = m.memoHits.load(std::memory_order_relaxed);
    const std::uint64_t lutSum =
        m.lutLinesSum.load(std::memory_order_relaxed);
    const std::uint64_t lutSamples =
        m.lutLinesSamples.load(std::memory_order_relaxed);
    const std::uint64_t journalUs =
        m.lastJournalAppendUs.load(std::memory_order_relaxed);

    // Instantaneous rates over the last heartbeat interval, smoothed
    // with an EWMA (alpha 0.3) so the status ETA doesn't whipsaw on
    // one slow job.
    const double dtS = (nowUs - s.lastBeatUs) * 1e-6;
    if (dtS > 0 && s.lastBeatUs > 0) {
        const double jobsRate = (jobsDone - s.lastJobs) / dtS;
        const double minstrRate = (insts - s.lastInsts) / dtS * 1e-6;
        constexpr double alpha = 0.3;
        s.ewmaJobsPerS = s.ewmaJobsPerS < 0
                             ? jobsRate
                             : alpha * jobsRate + (1 - alpha) * s.ewmaJobsPerS;
        s.ewmaMinstrPerS = s.ewmaMinstrPerS < 0
                               ? minstrRate
                               : alpha * minstrRate +
                                     (1 - alpha) * s.ewmaMinstrPerS;
    }
    s.lastBeatUs = nowUs;
    s.lastJobs = jobsDone;
    s.lastInsts = insts;

    std::string line = "{\"worker\":\"";
    line += jsonEscape(s.workerId);
    line += "\",\"ts\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::time(nullptr)));
    line += buf;
    line += ",\"uptime_s\":";
    appendDouble(line, nowUs * 1e-6);
    std::snprintf(buf, sizeof(buf),
                  ",\"jobs_done\":%" PRIu64 ",\"jobs_total\":%" PRIu64,
                  jobsDone, jobsTotal);
    line += buf;
    line += ",\"jobs_per_s\":";
    appendDouble(line, s.ewmaJobsPerS < 0 ? 0.0 : s.ewmaJobsPerS);
    line += ",\"minstr_per_s\":";
    appendDouble(line, s.ewmaMinstrPerS < 0 ? 0.0 : s.ewmaMinstrPerS);
    std::snprintf(buf, sizeof(buf), ",\"macro_insts\":%" PRIu64, insts);
    line += buf;
    line += ",\"memo_hit_rate\":";
    appendDouble(line, lookups ? static_cast<double>(hits) / lookups : 0.0);
    line += ",\"lut_occupancy\":";
    appendDouble(line, lutSamples ? static_cast<double>(lutSum) / lutSamples
                                  : 0.0);
    std::snprintf(buf, sizeof(buf), ",\"rss_bytes\":%" PRIu64,
                  residentBytes());
    line += buf;
    line += ",\"journal_lag_s\":";
    appendDouble(line, journalUs ? (nowUs - journalUs) * 1e-6 : -1.0);
    line += "}";
    return line;
}

void
appendSnapshotLocked(Store &s)
{
    if (s.snapshotPath.empty())
        return;
    const std::string line = renderSnapshotLineLocked(s) + "\n";
    if (FILE *f = std::fopen(s.snapshotPath.c_str(), "a")) {
        // One whole line per fwrite in O_APPEND mode: readers polling
        // the file never observe a torn record.
        std::fwrite(line.data(), 1, line.size(), f);
        std::fclose(f);
    }
}

} // namespace

void
collect()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    collectLocked(s);
}

std::vector<SpanEvent>
collectedEvents()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    collectLocked(s);
    return s.events;
}

std::uint64_t
droppedEvents()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    collectLocked(s);
    return s.dropped;
}

std::string
renderTimeline(const std::string &processLabel)
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    collectLocked(s);

    const long long pid = static_cast<long long>(::getpid());
    char buf[160];
    std::string out = timelinePrefix;

    // Metadata events first: process lane name, then one thread track
    // per distinct worker label.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%lld,"
                  "\"tid\":0,\"args\":{\"name\":\"",
                  pid);
    out += buf;
    out += jsonEscape(processLabel);
    out += "\"}}";

    const std::map<std::string, int> tids = tidTable(s.events);
    for (const auto &entry : tids) {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"thread_name\",\"ph\":\"M\","
                      "\"pid\":%lld,\"tid\":%d,\"args\":{\"name\":\"",
                      pid, entry.second);
        out += buf;
        out += jsonEscape(entry.first.empty() ? "main"
                                              : entry.first.c_str());
        out += "\"}}";
    }

    for (const SpanEvent &event : s.events) {
        const int tid = tids.at(event.thread);
        if (event.kind == SpanEvent::Kind::Counter) {
            std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"C\",\"pid\":%lld,\"tid\":%d,"
                          "\"ts\":%" PRIu64 ",\"name\":\"",
                          pid, tid, event.startUs);
            out += buf;
            out += jsonEscape(event.name);
            out += "\",\"args\":{\"value\":";
            appendDouble(out, event.value);
            out += "}}";
            continue;
        }
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"ph\":\"X\",\"pid\":%lld,\"tid\":%d,"
                      "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64 ",\"cat\":\"",
                      pid, tid, event.startUs, event.durUs);
        out += buf;
        out += jsonEscape(event.category);
        out += "\",\"name\":\"";
        out += jsonEscape(event.name);
        std::snprintf(buf, sizeof(buf),
                      "\",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                      "}}",
                      event.id, event.parent);
        out += buf;
    }

    out += timelineSuffix;
    return out;
}

namespace {

/** Calls and µs of one phase, merged (thread "") or on one thread. */
struct PhaseCell
{
    std::string phase;
    std::string thread;
    std::uint64_t calls = 0;
    std::uint64_t us = 0;
};

/** The cell for (@p phase, @p thread), appended on first sight so the
 * vector keeps first-close order. */
PhaseCell &
cellFor(std::vector<PhaseCell> &cells, const char *phase,
        const char *thread)
{
    for (PhaseCell &cell : cells)
        if (cell.phase == phase && cell.thread == thread)
            return cell;
    cells.push_back({phase, thread});
    return cells.back();
}

} // namespace

std::string
renderPhaseTable()
{
    std::vector<SpanEvent> phases;
    std::uint64_t dropped = 0;
    {
        Store &s = store();
        std::lock_guard<std::mutex> lock(s.mutex);
        collectLocked(s);
        for (std::size_t i = s.tableCursor; i < s.events.size(); ++i) {
            const SpanEvent &event = s.events[i];
            if (event.kind == SpanEvent::Kind::Span &&
                std::strcmp(event.category, "phase") == 0)
                phases.push_back(event);
        }
        dropped = s.dropped - s.tableDropped;
        s.tableCursor = s.events.size();
        s.tableDropped = s.dropped;
    }
    // Rings drain thread by thread; order by close time instead. The
    // sort is stable, so one thread's events keep their ring order.
    std::stable_sort(phases.begin(), phases.end(),
                     [](const SpanEvent &a, const SpanEvent &b) {
                         return a.startUs + a.durUs < b.startUs + b.durUs;
                     });
    std::vector<PhaseCell> byPhase;
    std::vector<PhaseCell> byThread;
    for (const SpanEvent &event : phases) {
        PhaseCell &total = cellFor(byPhase, event.name, "");
        ++total.calls;
        total.us += event.durUs;
        PhaseCell &own = cellFor(byThread, event.name, event.thread);
        ++own.calls;
        own.us += event.durUs;
    }
    std::uint64_t maxUs = 0;
    for (const PhaseCell &p : byPhase)
        maxUs = std::max(maxUs, p.us);

    std::string out;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%-32s %10s %14s %8s\n", "phase",
                  "calls", "seconds", "rel");
    out += buf;
    for (const PhaseCell &p : byPhase) {
        const double rel =
            maxUs > 0 ? static_cast<double>(p.us) / maxUs : 0.0;
        std::snprintf(buf, sizeof(buf), "%-32s %10" PRIu64 " %14.6f %7.1f%%\n",
                      p.phase.c_str(), p.calls, p.us * 1e-6, rel * 100.0);
        out += buf;
        // Per-worker breakdown, shown only when the phase ran on
        // labelled threads.
        for (const PhaseCell &cell : byThread) {
            if (cell.phase != p.phase || cell.thread.empty())
                continue;
            std::snprintf(buf, sizeof(buf), "  %-30s %10" PRIu64 " %14.6f\n",
                          ("[" + cell.thread + "]").c_str(), cell.calls,
                          cell.us * 1e-6);
            out += buf;
        }
    }
    if (byPhase.empty())
        out += "(no phases recorded)\n";
    if (dropped) {
        std::snprintf(buf, sizeof(buf),
                      "(%" PRIu64 " span events lost to ring overflow; "
                      "totals undercount)\n",
                      dropped);
        out += buf;
    }
    return out;
}

MetricsCounters &
metrics()
{
    static MetricsCounters counters;
    return counters;
}

void
setSnapshotPath(const std::string &path, const std::string &workerId)
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.snapshotPath = path;
    s.workerId = workerId;
    appendSnapshotLocked(s);
}

void
heartbeat()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    appendSnapshotLocked(s);
}

std::string
renderSnapshotLine()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    return renderSnapshotLineLocked(s);
}

void
resetForTest()
{
    Store &s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    collectLocked(s);
    s.events.clear();
    s.dropped = 0;
    s.tableCursor = 0;
    s.tableDropped = 0;
    s.snapshotPath.clear();
    s.workerId.clear();
    s.lastBeatUs = 0;
    s.lastJobs = 0;
    s.lastInsts = 0;
    s.ewmaJobsPerS = -1.0;
    s.ewmaMinstrPerS = -1.0;
    MetricsCounters &m = metrics();
    m.jobsDone.store(0, std::memory_order_relaxed);
    m.jobsTotal.store(0, std::memory_order_relaxed);
    m.macroInsts.store(0, std::memory_order_relaxed);
    m.memoLookups.store(0, std::memory_order_relaxed);
    m.memoHits.store(0, std::memory_order_relaxed);
    m.lutLinesSum.store(0, std::memory_order_relaxed);
    m.lutLinesSamples.store(0, std::memory_order_relaxed);
    m.lastJournalAppendUs.store(0, std::memory_order_relaxed);
}

} // namespace telemetry
} // namespace axmemo
