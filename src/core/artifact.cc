#include "core/artifact.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>

#include "common/interrupt.hh"
#include "common/log.hh"
#include "common/proc.hh"
#include "core/config_io.hh"
#include "core/json_export.hh"
#include "core/json_value.hh"
#include "core/output_paths.hh"
#include "core/run_journal.hh"
#include "core/run_stats.hh"
#include "core/shard_queue.hh"
#include "obs/json_escape.hh"
#include "obs/span.hh"

namespace axmemo {

namespace {

using Clock = std::chrono::steady_clock;

/** The standard bench banner. */
void
printBanner(const std::string &title, const RuntimeOptions &runtime)
{
    const double scale = runtime.benchScale();
    std::printf("== %s ==\n", title.c_str());
    std::printf("dataset scale %.4g (AXMEMO_FULL=1 for paper-size "
                "inputs)\n\n",
                scale);
}

/** The per-row status/attempts suffix: empty for a clean first-attempt
 * success, so fully-successful runs keep their historical bytes. */
std::string
statusFields(const SweepOutcome &outcome)
{
    std::string out;
    if (!outcome.ok()) {
        out += ",\"status\":\"";
        out += jobStatusName(outcome.status);
        out += "\",\"error\":";
        out += errorToJson(outcome.fault);
    }
    if (outcome.attempts > 1)
        out += ",\"attempts\":" + std::to_string(outcome.attempts);
    return out;
}

/** Default result rows: one object per enqueued job. */
std::vector<std::string>
defaultRows(const std::vector<SweepJob> &jobs,
            const std::vector<SweepOutcome> &outcomes)
{
    std::vector<std::string> rows;
    rows.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::string row = "{\"workload\":\"";
        row += jsonEscape(jobs[i].workload);
        row += "\",\"mode\":\"";
        row += jsonEscape(jobs[i].backend);
        row += "\",\"scored\":";
        row += jobs[i].scored ? "true" : "false";
        row += ",\"config\":";
        row += toJson(jobs[i].config);
        if (!outcomes[i].ok()) {
            row += statusFields(outcomes[i]);
        } else if (jobs[i].scored) {
            row += ",\"comparison\":";
            row += JsonWriter::toJson(outcomes[i].cmp,
                                      jobs[i].workload);
            row += statusFields(outcomes[i]);
        } else {
            row += ",\"run\":";
            row += JsonWriter::toJson(outcomes[i].run);
            row += statusFields(outcomes[i]);
        }
        row += '}';
        rows.push_back(std::move(row));
    }
    return rows;
}

/** Assemble the <name>.json document from rows. */
std::string
rowsDocument(const Artifact &artifact, const SweepEngine &engine,
             const std::vector<std::string> &rows)
{
    std::string doc = "{\"artifact\":\"";
    doc += jsonEscape(artifact.name());
    doc += "\",\"title\":\"";
    doc += jsonEscape(artifact.title());
    doc += "\",\"scale\":";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  engine.options().benchScale());
    doc += buf;
    doc += ",\"workers\":";
    doc += std::to_string(engine.workers());
    doc += ",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i)
            doc += ',';
        doc += rows[i];
    }
    doc += "]}";
    return doc;
}

/** Manifest entry: the exact serialized config — and per-run stats —
 * of every job. */
std::string
manifestRun(const Artifact &artifact,
            const std::vector<SweepJob> &jobs,
            const std::vector<SweepOutcome> &outcomes,
            double wallSeconds, const SweepMetrics &metrics)
{
    std::string entry = "{\"artifact\":\"";
    entry += jsonEscape(artifact.name());
    entry += "\",\"jobs\":";
    entry += std::to_string(jobs.size());
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6f", wallSeconds);
    entry += ",\"wall_seconds\":";
    entry += buf;
    // Fault counters appear only when something went wrong, so a clean
    // run's manifest keeps its historical byte layout.
    if (metrics.faultedJobs() || metrics.retriedJobs) {
        entry += ",\"failed_jobs\":";
        entry += std::to_string(metrics.failedJobs);
        entry += ",\"timed_out_jobs\":";
        entry += std::to_string(metrics.timedOutJobs);
        entry += ",\"skipped_jobs\":";
        entry += std::to_string(metrics.skippedJobs);
        entry += ",\"retried_jobs\":";
        entry += std::to_string(metrics.retriedJobs);
    }
    entry += ",\"runs\":[";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i)
            entry += ',';
        entry += "{\"workload\":\"";
        entry += jsonEscape(jobs[i].workload);
        entry += "\",\"mode\":\"";
        entry += jsonEscape(jobs[i].backend);
        entry += "\",\"scored\":";
        entry += jobs[i].scored ? "true" : "false";
        entry += ",\"config\":";
        entry += toJson(jobs[i].config);
        entry += statusFields(outcomes[i]);
        // A faulted run has no simulation results; its statistics
        // section would be all zeros (and derived rates NaN), so the
        // status/error object above replaces it.
        if (outcomes[i].ok()) {
            entry += ",\"stats\":";
            entry += runStatSet(jobs[i], outcomes[i]).renderJson();
        }
        entry += '}';
    }
    entry += "]}";
    return entry;
}

/** @p path's final component (reports must not leak directory names). */
std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Whole file as a string; empty optional-style "" on failure. */
std::string
readWholeFile(const std::string &path)
{
    std::string content;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return content;
    char buf[1 << 12];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        content.append(buf, got);
    std::fclose(file);
    return content;
}

/** One probed journal segment of a merge. */
struct SegmentStatus
{
    std::string path;
    Error fault{};
    bool ok = false;
};

/**
 * The merge-side shard report <name>_shards.json: per-segment probe
 * status, the damaged count, and every per-worker shard manifest
 * inlined. This is a separate file — the standard reports must stay
 * byte-identical to a single-process run, and worker counters are
 * inherently run-specific.
 */
std::string
shardsDocument(const std::string &name,
               const std::vector<SegmentStatus> &segments,
               std::size_t damaged, const std::string &shardDir)
{
    std::string doc = "{\"artifact\":\"";
    doc += jsonEscape(name);
    doc += "\",\"damaged_segments\":";
    doc += std::to_string(damaged);
    doc += ",\"segments\":[";
    for (std::size_t i = 0; i < segments.size(); ++i) {
        if (i)
            doc += ',';
        doc += "{\"segment\":\"";
        doc += jsonEscape(baseName(segments[i].path));
        if (segments[i].ok) {
            doc += "\",\"status\":\"ok\"}";
        } else {
            doc += "\",\"status\":\"damaged\",\"error\":";
            doc += errorToJson(segments[i].fault);
            doc += '}';
        }
    }
    doc += "],\"workers\":[";
    bool first = true;
    for (const std::string &path : ShardQueue::shardManifests(shardDir)) {
        std::string manifest = readWholeFile(path);
        while (!manifest.empty() &&
               (manifest.back() == '\n' || manifest.back() == '\r'))
            manifest.pop_back();
        if (!parseJsonValue(manifest).ok()) {
            axm_warn("skipping unreadable shard manifest '", path, "'");
            continue;
        }
        if (!first)
            doc += ',';
        first = false;
        doc += manifest;
    }
    doc += "]}";
    return doc;
}

} // namespace

ArtifactRegistry &
ArtifactRegistry::instance()
{
    static ArtifactRegistry registry;
    return registry;
}

void
ArtifactRegistry::add(int order, Factory factory)
{
    const std::unique_ptr<Artifact> probe = factory();
    Entry entry;
    entry.order = order;
    entry.name = probe->name();
    entry.description = probe->description();
    entry.factory = std::move(factory);
    for (const Entry &existing : entries_)
        if (existing.name == entry.name)
            axm_panic("duplicate artifact registration '", entry.name,
                      "'");
    entries_.push_back(std::move(entry));
}

std::vector<ArtifactInfo>
ArtifactRegistry::list() const
{
    std::vector<ArtifactInfo> infos;
    infos.reserve(entries_.size());
    for (const Entry &entry : entries_)
        infos.push_back({entry.name, entry.description, entry.order});
    std::sort(infos.begin(), infos.end(),
              [](const ArtifactInfo &a, const ArtifactInfo &b) {
                  return a.order != b.order ? a.order < b.order
                                            : a.name < b.name;
              });
    return infos;
}

std::unique_ptr<Artifact>
ArtifactRegistry::make(const std::string &name) const
{
    for (const Entry &entry : entries_)
        if (entry.name == name)
            return entry.factory();
    return nullptr;
}

ArtifactRegistrar::ArtifactRegistrar(int order,
                                     ArtifactRegistry::Factory factory)
{
    ArtifactRegistry::instance().add(order, std::move(factory));
}

Expected<ArtifactRunRecord>
runArtifact(Artifact &artifact, const ArtifactRunOptions &options)
{
    const auto wallStart = Clock::now();
    const std::string name = artifact.name();
    const std::string title = artifact.title();
    const bool worker = options.shardMode == ShardMode::Worker;
    if (worker && !options.queue)
        return Error{ErrorCode::Config, "artifact",
                     "shard worker mode needs a work-queue"};
    if (!options.rowsToStdout && !title.empty() && !worker)
        printBanner(title, options.runtime);

    SweepEngine engine(options.runtime);
    try {
        AXM_SPAN("phase", "artifact.enqueue");
        artifact.enqueue(engine);
    } catch (const AxException &e) {
        return e.error();
    } catch (const std::exception &e) {
        return Error{ErrorCode::Internal, "artifact",
                     name + ": enqueue threw: " + e.what()};
    }
    const std::vector<SweepJob> jobs = engine.pending();
    std::vector<SegmentStatus> segments;
    std::size_t damagedSegments = 0;
    if (worker) {
        engine.setShardQueue(options.queue);
        // The worker's journal segment is shared across every artifact
        // of the invocation and survives restarts: resume semantics
        // replay this worker's own completed records after a crash.
        if (!jobs.empty())
            engine.setJournal(options.queue->journalPath(),
                              /*resume=*/true);
    } else if (options.shardMode == ShardMode::Merge) {
        // Probe every segment before loading: a damaged shard is
        // reported and skipped (its jobs re-simulate below) — one
        // corrupt file never aborts the reduction.
        std::vector<std::string> readable;
        for (const std::string &path :
             ShardQueue::journalSegments(options.shardDir)) {
            SegmentStatus status;
            status.path = path;
            const Expected<SweepJournal::HeaderInfo> probed =
                SweepJournal::probe(path);
            status.ok = probed.ok();
            if (probed.ok()) {
                readable.push_back(path);
            } else {
                status.fault = probed.error();
                ++damagedSegments;
                axm_warn("merge: skipping damaged segment '", path,
                         "': ", probed.error().describe());
            }
            segments.push_back(std::move(status));
        }
        engine.addReplaySegments(readable);
    } else if ((options.journal || options.resume) && !jobs.empty()) {
        engine.setJournal(SweepJournal::pathFor(name, options.outDir),
                          options.resume);
    }
    std::vector<SweepOutcome> outcomes;
    {
        AXM_SPAN("phase", "artifact.execute");
        outcomes = engine.execute();
    }
    // A fully successful sweep needs no checkpoint; anything faulted
    // or interrupted keeps it so `--resume` can pick up the rest. A
    // worker's segment always survives — merge consumes it.
    engine.closeJournal(!worker &&
                        engine.metrics().faultedJobs() == 0 &&
                        !interruptRequested());
    if (worker) {
        const SweepMetrics &metrics = engine.metrics();
        ArtifactRunRecord record;
        record.wallSeconds =
            options.runtime.reportTiming
                ? std::chrono::duration<double>(Clock::now() -
                                                wallStart)
                      .count()
                : 0.0;
        record.jobs = jobs.size();
        record.failedJobs = metrics.failedJobs;
        record.timedOutJobs = metrics.timedOutJobs;
        record.skippedJobs = metrics.skippedJobs;
        record.restoredJobs = metrics.restoredJobs;
        record.retriedJobs = metrics.retriedJobs;
        record.foreignJobs = metrics.foreignJobs;
        record.simulatedMacroInsts = metrics.simulatedMacroInsts;
        std::fprintf(stderr, "[%s %s] %s\n", name.c_str(),
                     options.queue->workerId().c_str(),
                     engine.summary().c_str());
        return record;
    }
    ArtifactResult result;
    try {
        AXM_SPAN("phase", "artifact.reduce");
        result = artifact.reduce(outcomes);
    } catch (const AxException &e) {
        return e.error();
    } catch (const std::exception &e) {
        return Error{ErrorCode::Internal, "artifact",
                     name + ": reduce threw: " + e.what()};
    }
    AXM_SPAN("phase", "artifact.emit");

    if (result.jsonRows.empty() && !jobs.empty())
        result.jsonRows = defaultRows(jobs, outcomes);
    const double wallSeconds =
        options.runtime.reportTiming
            ? std::chrono::duration<double>(Clock::now() - wallStart)
                  .count()
            : 0.0;

    if (options.rowsToStdout) {
        const std::string doc =
            rowsDocument(artifact, engine, result.jsonRows);
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        std::fputc('\n', stdout);
    } else {
        std::fwrite(result.text.data(), 1, result.text.size(),
                    stdout);
    }
    std::fflush(stdout);

    if (options.writeSweepReport && !jobs.empty()) {
        engine.writeReport(name, options.outDir);
        std::fprintf(stderr, "[%s] %s\n", name.c_str(),
                     engine.summary().c_str());
    }

    if (options.writeRows) {
        const std::string path = joinPath(
            resolveOutputDir(options.outDir), name + ".json");
        const Expected<void> wrote = atomicWriteFile(
            path,
            rowsDocument(artifact, engine, result.jsonRows) + '\n');
        if (!wrote.ok())
            axm_warn("cannot write result rows: ",
                     wrote.error().describe());
    }

    if (options.writeStats && !jobs.empty()) {
        std::string sections;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            sections += runStatsSection(
                name + "/run" + std::to_string(i), jobs[i],
                outcomes[i]);
            sections += '\n';
        }
        const std::string path = joinPath(
            resolveOutputDir(options.outDir), name + "_stats.txt");
        const Expected<void> wrote = atomicWriteFile(path, sections);
        if (!wrote.ok())
            axm_warn("cannot write run statistics: ",
                     wrote.error().describe());
    }

    if (options.shardMode == ShardMode::Merge && !jobs.empty()) {
        const std::string path = joinPath(
            resolveOutputDir(options.outDir), name + "_shards.json");
        const Expected<void> wrote = atomicWriteFile(
            path,
            shardsDocument(name, segments, damagedSegments,
                           options.shardDir) +
                '\n');
        if (!wrote.ok())
            axm_warn("cannot write shard report: ",
                     wrote.error().describe());
    }

    const SweepMetrics &metrics = engine.metrics();
    ArtifactRunRecord record;
    record.wallSeconds = wallSeconds;
    record.jobs = jobs.size();
    record.failedJobs = metrics.failedJobs;
    record.timedOutJobs = metrics.timedOutJobs;
    record.skippedJobs = metrics.skippedJobs;
    record.restoredJobs = metrics.restoredJobs;
    record.retriedJobs = metrics.retriedJobs;
    record.foreignJobs = metrics.foreignJobs;
    record.damagedSegments = damagedSegments;
    record.simulatedMacroInsts = metrics.simulatedMacroInsts;
    record.manifestRun =
        manifestRun(artifact, jobs, outcomes, wallSeconds, metrics);
    return record;
}

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n > 0) {
        const std::size_t base = out.size();
        out.resize(base + static_cast<std::size_t>(n) + 1);
        std::vsnprintf(out.data() + base,
                       static_cast<std::size_t>(n) + 1, fmt, args);
        out.resize(base + static_cast<std::size_t>(n));
    }
    va_end(args);
}

} // namespace axmemo
