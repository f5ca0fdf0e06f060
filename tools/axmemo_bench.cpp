/**
 * @file
 * The unified paper-artifact driver, dispatched through the
 * table-driven command-line layer (tools/cli.hh). Every subcommand is
 * one SubcommandRegistry row — `axmemo help` and `axmemo help <cmd>`
 * are generated from the table, and every command parses the same
 * option rows, so `--out/--jobs/--scale/--json` behave identically
 * everywhere.
 *
 *   axmemo list                        catalog of registered artifacts
 *   axmemo run fig9                    one artifact, legacy-identical
 *                                      stdout (run all = everything)
 *   axmemo profile fig9                run + the per-phase host-time
 *                                      table built from "phase" spans
 *   axmemo merge fig9 --shard-dir <d>  reduce a sharded sweep
 *   axmemo status <dir>                one-screen fleet view
 *   axmemo serve                       long-lived memo server on an
 *                                      AF_UNIX socket (DESIGN.md §14)
 *   axmemo replay                      drive a server with a synthetic
 *                                      request trace; latency/hit-rate
 *                                      JSON report
 *
 * Fault tolerance (--resume/--retries/--job-timeout/--isolate), shard
 * fleets (--shard-dir/--workers/--worker-id/--lease), observability
 * (--debug-flags/--trace-out/--trace-timeline) and the host data-path
 * knobs (--no-batch/--no-simd) are documented in the option listing
 * (`axmemo help`) and DESIGN.md §§8-14.
 *
 * Besides stdout, each run emits <name>_sweep.json (host-side sweep
 * performance), <name>.json (result rows) and <name>_stats.txt (one
 * gem5-like statistics section per simulated job) into the output
 * directory, plus one manifest.json recording the exact canonical
 * serialized configuration of every simulated job.
 */

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <thread>

#include "common/interrupt.hh"
#include "common/log.hh"
#include "common/runtime_options.hh"
#include "core/artifact.hh"
#include "core/fleet_status.hh"
#include "core/memo_backends.hh"
#include "core/output_paths.hh"
#include "core/shard_queue.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "serve/replay.hh"
#include "serve/server.hh"
#include "tools/cli.hh"
#include "workloads/request_trace.hh"

namespace {

using namespace axmemo;

/** Catalog group for a registration order (see artifacts.hh). */
const char *
artifactGroup(int order)
{
    switch (order / 10) {
      case 1: return "tables";
      case 2: return "figures";
      case 3: return "section 6.2 studies";
      case 4: return "ablations";
      case 5: return "micro-benchmarks";
      case 6: return "serving";
      default: return "other";
    }
}

int
listEntry(cli::CommonArgs &)
{
    const char *group = nullptr;
    for (const ArtifactInfo &info :
         ArtifactRegistry::instance().list()) {
        const char *next = artifactGroup(info.order);
        if (!group || std::strcmp(group, next) != 0) {
            std::printf("%s%s:\n", group ? "\n" : "", next);
            group = next;
        }
        std::printf("  %-26s %s\n", info.name.c_str(),
                    info.description.c_str());
    }
    std::printf("\nmemoization backends (run `axmemo run "
                "memo_backends` to compare):\n");
    for (const MemoBackend *backend : memoBackends().list())
        std::printf("  %-26s %s\n", backend->name().c_str(),
                    backend->description().c_str());
    return 0;
}

/** Write one timeline document (crash-safe, like every report). */
void
saveTimeline(const std::string &path, const std::string &document)
{
    const Expected<void> wrote = atomicWriteFile(path, document);
    if (!wrote.ok())
        axm_warn("cannot write timeline: ", wrote.error().describe());
}

/** The run/profile/merge artifact loop (one function, three roles). */
int
artifactEntry(cli::CommonArgs &args, bool profile, bool merge)
{
    RuntimeOptions runtime = args.runtime;
    std::vector<std::string> names = args.positional;
    const bool json = args.json;
    if (names.empty()) {
        std::fprintf(stderr,
                     "need at least one artifact name (or `all`); "
                     "see `axmemo list`\n");
        return 2;
    }

    ArtifactRegistry &registry = ArtifactRegistry::instance();
    if (names.size() == 1 && names[0] == "all") {
        names.clear();
        for (const ArtifactInfo &info : registry.list())
            names.push_back(info.name);
    }

    // Validate the whole list before simulating anything.
    for (const std::string &name : names) {
        if (!registry.make(name)) {
            std::fprintf(stderr,
                         "unknown artifact '%s' (try `axmemo list`)\n",
                         name.c_str());
            return 2;
        }
    }

    ArtifactRunOptions options;
    options.outDir = runtime.outDir;
    options.writeRows = true;
    options.rowsToStdout = json;
    options.writeStats = true;
    options.runtime = runtime;
    options.journal = true;
    options.resume = args.resume;

    // Even an interrupted or partially failed invocation writes what it
    // has: the manifest records every artifact that ran to completion.
    auto writeManifest = [&](const std::vector<std::string> &runs) {
        const std::string manifestPath = joinPath(
            resolveOutputDir(runtime.outDir), "manifest.json");
        std::string doc = "{\"runs\":[";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (i)
                doc += ',';
            doc += runs[i];
        }
        doc += "]}\n";
        const Expected<void> wrote =
            atomicWriteFile(manifestPath, doc);
        if (!wrote.ok())
            axm_warn("cannot write manifest: ",
                     wrote.error().describe());
    };

    // The artifact loop, shared by the standard, worker and merge
    // roles. Workers write no manifest.json (report emission is the
    // merge step's job); they write their per-worker shard manifest.
    const auto driveArtifacts = [&](const ArtifactRunOptions &opts)
        -> int {
        const bool worker = opts.shardMode == ShardMode::Worker;
        const auto wallStart = std::chrono::steady_clock::now();
        std::vector<std::string> manifestRuns;
        std::size_t faultedJobs = 0;
        std::size_t damagedSegments = 0;
        std::size_t totalJobs = 0;
        std::uint64_t totalMacro = 0;
        const auto finishWorker = [&] {
            if (!worker || !opts.queue)
                return;
            const double wall =
                opts.runtime.reportTiming
                    ? std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wallStart)
                          .count()
                    : 0.0;
            const Expected<void> wrote = opts.queue->writeShardManifest(
                totalJobs, totalMacro, wall);
            if (!wrote.ok())
                axm_warn("cannot write shard manifest: ",
                         wrote.error().describe());
        };
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (i && !json && !worker)
                std::printf("\n");
            const std::unique_ptr<Artifact> artifact =
                registry.make(names[i]);
            const Expected<ArtifactRunRecord> record =
                runArtifact(*artifact, opts);
            if (!record.ok()) {
                std::fprintf(stderr, "%s: %s\n", names[i].c_str(),
                             record.error().describe().c_str());
                if (!worker)
                    writeManifest(manifestRuns);
                finishWorker();
                return 1;
            }
            faultedJobs += record.value().faultedJobs();
            damagedSegments += record.value().damagedSegments;
            totalJobs += record.value().jobs;
            totalMacro += record.value().simulatedMacroInsts;
            if (!worker)
                manifestRuns.push_back(record.value().manifestRun);
            if (interruptRequested())
                break;
            if (profile && !worker) {
                // The table covers the phase spans closed since the
                // previous artifact's: this run only.
                std::printf("\n== profile %s ==\n%s", names[i].c_str(),
                            telemetry::renderPhaseTable().c_str());
                std::fflush(stdout);
            }
        }
        if (!worker)
            writeManifest(manifestRuns);
        finishWorker();
        if (interruptRequested()) {
            std::fprintf(stderr,
                         "interrupted by signal %d; partial results "
                         "written (rerun with --resume to continue)\n",
                         interruptSignal());
            return 128 + interruptSignal();
        }
        if (damagedSegments) {
            std::fprintf(stderr,
                         "%zu damaged journal segment(s) skipped; "
                         "their jobs were re-simulated (see "
                         "<name>_shards.json)\n",
                         damagedSegments);
            return 1;
        }
        if (faultedJobs) {
            std::fprintf(stderr,
                         "%zu job(s) did not complete; see "
                         "manifest.json for per-job status\n",
                         faultedJobs);
            return 1;
        }
        return 0;
    };

    // Convenience fan-out: fork N cooperating workers over one shard
    // directory, wait for them, then fall through to the merge role.
    // fork() happens before any thread exists in this process.
    int workerExit = 0;
    if (args.fanout > 1 && !merge) {
        if (runtime.shardDir.empty())
            runtime.shardDir = joinPath(
                resolveOutputDir(runtime.outDir), "shards");
        const std::string baseId =
            runtime.workerId.empty()
                ? std::string("w") + std::to_string(::getpid())
                : runtime.workerId;
        std::vector<pid_t> children;
        for (unsigned k = 0; k < args.fanout; ++k) {
            std::fflush(stdout);
            std::fflush(stderr);
            const pid_t pid = ::fork();
            if (pid < 0) {
                std::fprintf(stderr, "fork: %s\n",
                             std::strerror(errno));
                return 1;
            }
            if (pid == 0) {
                runtime.workerId =
                    baseId + "-" + std::to_string(k);
                RuntimeOptions::setGlobal(runtime);
                ShardQueue queue(runtime.shardDir, runtime.workerId,
                                 runtime.leaseSeconds);
                ArtifactRunOptions workerOptions = options;
                workerOptions.runtime = runtime;
                workerOptions.shardMode = ShardMode::Worker;
                workerOptions.queue = &queue;
                const int code = driveArtifacts(workerOptions);
                if (!runtime.timeline.empty())
                    saveTimeline(queue.timelinePath(),
                                 telemetry::renderTimeline(
                                     runtime.workerId));
                std::exit(code);
            }
            children.push_back(pid);
        }
        for (const pid_t pid : children) {
            int status = 0;
            ::waitpid(pid, &status, 0);
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                workerExit = 1;
        }
        merge = true; // this process reduces what the workers drained
    }

    if (merge) {
        if (runtime.shardDir.empty()) {
            std::fprintf(stderr, "merge needs --shard-dir\n");
            return 2;
        }
        options.shardMode = ShardMode::Merge;
        options.shardDir = runtime.shardDir;
        const int code = driveArtifacts(options);
        if (!runtime.timeline.empty()) {
            // Stitch every worker's timeline segment — plus this merge
            // process's own lane — into the one requested file.
            std::size_t damaged = 0;
            const std::string stitched = stitchTimelines(
                ShardQueue::timelineSegments(runtime.shardDir),
                telemetry::renderTimeline("merge"), &damaged);
            if (damaged)
                axm_warn(damaged,
                         " damaged timeline segment(s) skipped");
            saveTimeline(runtime.timeline, stitched);
        }
        return code ? code : workerExit;
    }
    if (!runtime.shardDir.empty()) {
        const std::string workerId =
            runtime.workerId.empty()
                ? std::string("w") + std::to_string(::getpid())
                : runtime.workerId;
        ShardQueue queue(runtime.shardDir, workerId,
                         runtime.leaseSeconds);
        options.shardMode = ShardMode::Worker;
        options.queue = &queue;
        const int code = driveArtifacts(options);
        // A shard worker contributes a per-worker segment; the
        // requested file is the merge step's to write.
        if (!runtime.timeline.empty())
            saveTimeline(queue.timelinePath(),
                         telemetry::renderTimeline(workerId));
        return code;
    }
    const int code = driveArtifacts(options);
    if (!runtime.timeline.empty())
        saveTimeline(runtime.timeline,
                     telemetry::renderTimeline(
                         names.size() == 1 ? names[0] : "run"));
    return code;
}

int
runEntry(cli::CommonArgs &args)
{
    return artifactEntry(args, false, false);
}

int
profileEntry(cli::CommonArgs &args)
{
    // The table is built from phase spans, so record them the way
    // --trace-timeline does.
    telemetry::setEnabled(true);
    return artifactEntry(args, true, false);
}

int
mergeEntry(cli::CommonArgs &args)
{
    return artifactEntry(args, false, true);
}

int
statusEntry(cli::CommonArgs &args)
{
    if (args.positional.size() != 1) {
        std::fprintf(stderr,
                     "status takes exactly one <shard-dir|run-dir>\n");
        return 2;
    }
    const std::string statusDir = args.positional[0];
    for (;;) {
        const FleetStatus fleet =
            readFleetStatus(statusDir, args.runtime.leaseSeconds);
        if (args.json) {
            std::fputs(renderFleetJson(fleet).c_str(), stdout);
        } else {
            if (args.watchSeconds > 0.0)
                std::fputs("\033[2J\033[H", stdout); // re-home
            std::fputs(renderFleetText(fleet).c_str(), stdout);
        }
        std::fflush(stdout);
        if (args.watchSeconds <= 0.0)
            return 0;
        // Sleep in short slices so Ctrl-C lands promptly.
        const auto until =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(args.watchSeconds));
        while (std::chrono::steady_clock::now() < until) {
            if (interruptRequested())
                return 0;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    }
}

/** Resolved serve/replay socket path: the knob, or <out>/axmemo.sock. */
std::string
serveSocketPath(const RuntimeOptions &runtime)
{
    if (!runtime.serveSocket.empty())
        return runtime.serveSocket;
    return joinPath(resolveOutputDir(runtime.outDir), "axmemo.sock");
}

int
serveEntry(cli::CommonArgs &args)
{
    if (!args.positional.empty()) {
        std::fprintf(stderr, "serve takes no positional arguments\n");
        return 2;
    }
    const RuntimeOptions &runtime = args.runtime;
    serve::ServerConfig config;
    config.socketPath = serveSocketPath(runtime);
    config.table.policy = runtime.servePolicy == "shared"
                              ? serve::PartitionPolicy::Shared
                              : serve::PartitionPolicy::Partitioned;
    config.table.lutBytes = runtime.serveLutBytes;
    for (unsigned i = 0; i < runtime.serveTenants; ++i)
        config.table.tenants.push_back(
            {"tenant-" + std::to_string(i), runtime.serveQuota});
    config.queueDepth = runtime.serveQueue;
    config.snapshotPath = joinPath(resolveOutputDir(runtime.outDir),
                                   "serve_snapshot.json");
    config.reportTiming = runtime.reportTiming;

    try {
        serve::MemoServer server(config);
        const Expected<void> started = server.start();
        if (!started.ok()) {
            std::fprintf(stderr, "%s\n",
                         started.error().describe().c_str());
            return 1;
        }
        std::printf("axmemo serve: listening on %s (%u tenants, %s "
                    "policy, queue %u)\n",
                    config.socketPath.c_str(), runtime.serveTenants,
                    serve::partitionPolicyName(config.table.policy),
                    runtime.serveQueue);
        std::fflush(stdout);
        server.serveUntilDrained(true);
        const serve::ServerTotals totals = server.totals();
        std::printf("axmemo serve: drained (%llu requests, %llu "
                    "sheds); snapshot %s\n",
                    static_cast<unsigned long long>(totals.requests),
                    static_cast<unsigned long long>(totals.sheds),
                    config.snapshotPath.c_str());
        return 0;
    } catch (const AxException &e) {
        std::fprintf(stderr, "%s\n", e.error().describe().c_str());
        return 2;
    }
}

int
replayEntry(cli::CommonArgs &args)
{
    if (!args.positional.empty()) {
        std::fprintf(stderr, "replay takes no positional arguments\n");
        return 2;
    }
    const RuntimeOptions &runtime = args.runtime;

    RequestTraceSpec spec = RequestTraceSpec::smoke(runtime.traceSeed);
    if (runtime.traceRequests)
        spec.requests = runtime.traceRequests;
    const std::vector<TraceRequest> trace = generateRequestTrace(spec);

    const std::string socket = serveSocketPath(runtime);
    const Expected<int> fd = serve::connectUnix(socket);
    if (!fd.ok()) {
        std::fprintf(stderr, "%s\n", fd.error().describe().c_str());
        return 1;
    }

    serve::ReplayConfig config;
    config.reportTiming = runtime.reportTiming;
    config.drainAfter = args.drain;
    const Expected<serve::ReplayReport> report =
        serve::replayTrace(fd.value(), spec, trace, config);
    ::close(fd.value());
    if (!report.ok()) {
        std::fprintf(stderr, "%s\n",
                     report.error().describe().c_str());
        return 1;
    }

    const std::string doc = report.value().toJson();
    std::printf("%s\n", doc.c_str());
    const Expected<void> wrote = atomicWriteFile(
        joinPath(resolveOutputDir(runtime.outDir), "replay.json"),
        doc + "\n");
    if (!wrote.ok()) {
        std::fprintf(stderr, "cannot write replay.json: %s\n",
                     wrote.error().describe().c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    cli::SubcommandRegistry registry;
    registry.add({"list", "catalog of registered artifacts and memo "
                          "backends",
                  "",
                  "Prints every registered paper artifact, grouped by "
                  "kind, then the\nregistered memoization backends. "
                  "`--list` is accepted as a legacy\nspelling.\n",
                  listEntry});
    registry.add(
        {"run", "run paper artifacts (tables, figures, ablations)",
         "<artifact>... | all [options]",
         "Runs each named artifact (or every one with `all`): dataset\n"
         "synthesis, the memoization transform, timing simulation, "
         "energy\nmodel and quality scoring, with reports and "
         "manifest.json in the\noutput directory.\n\n"
         "Fault tolerance: --resume --retries --job-timeout "
         "--fault-inject\n--isolate. Shard fleets: --shard-dir "
         "--worker-id --lease, or\n--workers <n> to fork a local "
         "fleet and merge in one invocation.\n",
         runEntry});
    registry.add({"profile", "run artifacts, then print the "
                             "phase-timer table",
                  "<artifact>... | all [options]",
                  "Identical to `run` with span recording armed, then "
                  "prints the host\ntime of each \"phase\" span (per "
                  "phase and per sweep worker) for\neach artifact.\n",
                  profileEntry});
    registry.add({"merge", "reduce a sharded sweep into reports",
                  "<artifact>... | all --shard-dir <d> [options]",
                  "Reduces the per-worker journal segments of a "
                  "sharded run into\nreports byte-identical to a "
                  "single-process run (same --jobs,\n--no-timing), "
                  "plus <name>_shards.json with per-worker counters.\n",
                  mergeEntry});
    registry.add({"status", "one-screen fleet view of a shard/run "
                            "directory",
                  "<shard-dir|run-dir> [--json] [--watch <s>]",
                  "Reads worker heartbeats and metrics snapshots: "
                  "per-worker state\n(running / idle / done / dead), "
                  "progress, EWMA throughput and ETA\n(reports a "
                  "stalled ETA when throughput has decayed to zero), "
                  "and a\nslowest-claim watchlist.\n",
                  statusEntry});
    registry.add({"serve", "long-lived memo server on an AF_UNIX "
                           "socket",
                  "[--socket <p>] [--policy <p>] [--tenants <n>] "
                  "[--quota <n>] [options]",
                  "Starts the multi-tenant memo server (DESIGN.md "
                  "§14): per-tenant\nLUT_ID partitioning "
                  "(--policy partitioned|shared, --quota), memo\n"
                  "requests answered as they are read, a bounded queue "
                  "for Run\nrequests that sheds when full (--queue), "
                  "and a graceful SIGTERM\ndrain that writes "
                  "serve_snapshot.json before exiting 0. Drive\nit "
                  "with `axmemo replay`.\n",
                  serveEntry});
    registry.add({"replay", "drive a memo server with a synthetic "
                            "trace",
                  "[--socket <p>] [--seed <n>] [--requests <n>] "
                  "[--drain] [options]",
                  "Generates the deterministic two-tenant smoke trace "
                  "(Zipfian keys,\ndiurnal + bursty arrivals; --seed, "
                  "--requests) and replays it\nclosed-loop: lookup, "
                  "then update on a miss. Prints and writes\n"
                  "replay.json with p50/p95/p99 latency, per-tenant "
                  "hit rates,\nshed rate and the server's own stats. "
                  "--drain sends a Drain\nrequest afterwards.\n",
                  replayEntry});

    return cli::dispatch(argc, argv, registry);
}
