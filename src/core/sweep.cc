#include "core/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "common/interrupt.hh"
#include "common/log.hh"
#include "common/proc.hh"
#include "common/run_control.hh"
#include "core/config_io.hh"
#include "core/output_paths.hh"
#include "core/run_journal.hh"
#include "core/shard_queue.hh"
#include "obs/json_escape.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace axmemo {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Key of the prepared-program cache: workload + dataset parameters, in
 * the canonical config_io serialization. Because the serializer emits
 * every field of the struct, a new WorkloadParams field automatically
 * participates in the key (the old hand-appended byte keys silently
 * went stale instead; the config_io field-count guard test enforces
 * that the serializer itself keeps up).
 */
std::string
prepareKey(const std::string &workload, const WorkloadParams &d)
{
    std::string key = workload;
    key.push_back('\0');
    key += toJson(d);
    return key;
}

/**
 * Key of the baseline result cache: everything a baseline run can
 * observe — dataset, CPU, memory hierarchy and energy parameters. LUT
 * geometry, CRC width, memo policies etc. deliberately do not
 * participate — the baseline has no memoization unit, which is what
 * lets one baseline serve a whole row of subject configurations.
 */
std::string
baselineKey(const std::string &workload, const ExperimentConfig &cfg)
{
    std::string key = prepareKey(workload, cfg.dataset);
    key += toJson(cfg.cpu);
    key += toJson(cfg.hierarchy);
    key += toJson(cfg.energy);
    return key;
}

/** Outcome status for a fault propagated from a dependency. */
JobStatus
statusForError(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Timeout: return JobStatus::TimedOut;
      case ErrorCode::Cancelled: return JobStatus::Skipped;
      default: return JobStatus::Failed;
    }
}

/** The watchdog/interrupt context of one simulation attempt. */
RunControl
makeControl(const RuntimeOptions &options)
{
    RunControl control;
    if (options.jobTimeoutSeconds > 0.0) {
        control.hasDeadline = true;
        control.deadline =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    options.jobTimeoutSeconds));
    }
    control.cancelled = &interruptRequested;
    return control;
}

struct Attempt
{
    JobStatus status = JobStatus::Ok;
    Error fault{};
    unsigned attempts = 0;
};

/**
 * The worker boundary: run @p fn, containing any exception as a
 * structured fault. Failed attempts are retried up to @p retries more
 * times; Timeout and Cancelled are deterministic, so they never are.
 */
template <typename Fn>
Attempt
runWithRetry(Fn &&fn, unsigned retries)
{
    Attempt a;
    for (;;) {
        ++a.attempts;
        try {
            fn(a.attempts);
            a.status = JobStatus::Ok;
            a.fault = Error{};
            return a;
        } catch (const AxException &e) {
            a.fault = e.error();
            if (a.fault.code == ErrorCode::Timeout) {
                a.status = JobStatus::TimedOut;
                return a;
            }
            if (a.fault.code == ErrorCode::Cancelled) {
                a.status = JobStatus::Skipped;
                return a;
            }
            a.status = JobStatus::Failed;
        } catch (const std::exception &e) {
            a.fault =
                Error{ErrorCode::Internal, "sweep", e.what()};
            a.status = JobStatus::Failed;
        }
        if (a.attempts > retries)
            return a;
        AXM_TRACE(Sweep, "sweep", "retry (attempt ", a.attempts + 1,
                  ") after: ", a.fault.describe());
    }
}

/** A job under the baseline backend (shared-result fast path). */
bool
isBaseline(const SweepJob &job)
{
    return job.backend == "baseline";
}

/** The AXMEMO_FAULT_INJECT test hook; see RuntimeOptions. */
void
maybeInjectFault(const RuntimeOptions &options, const SweepJob &job,
                 unsigned attempt)
{
    if (options.faultInject.empty() || isBaseline(job))
        return;
    const std::string target = options.faultWorkload();
    if (target.empty() ||
        job.workload.find(target) == std::string::npos)
        return;
    if (attempt <= options.faultAttempts())
        raiseError(ErrorCode::Simulation, "fault-inject",
                   "injected failure (attempt " +
                       std::to_string(attempt) + " of workload " +
                       job.workload + ")");
}

/**
 * Run @p simulate in a forked child (--isolate): a crash, deadlock or
 * runaway allocation in one job is contained at the process boundary.
 * The child ships its RunResult, outputs included, back over a pipe as
 * one run line of the journal codec; the parent's poll deadline
 * (SIGKILL on expiry) becomes the watchdog, surfacing as
 * ErrorCode::Timeout. All failures re-throw as AxException so the
 * standard retry/timeout policy applies unchanged.
 */
RunResult
simulateIsolated(const std::function<RunResult()> &simulate,
                 const RuntimeOptions &options)
{
    const Expected<std::string> payload = runInForkedChild(
        [&] { return SweepJournal::encodeRunLine(simulate()); },
        options.jobTimeoutSeconds);
    if (!payload.ok())
        throw AxException(payload.error());
    Expected<RunResult> decoded =
        SweepJournal::decodeRunLine(payload.value());
    if (!decoded.ok())
        throw AxException(Error{ErrorCode::Internal, "isolate",
                                "undecodable child result: " +
                                    decoded.error().describe()});
    return std::move(decoded).value();
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timed_out";
      case JobStatus::Skipped: return "skipped";
      case JobStatus::Foreign: return "foreign";
    }
    return "unknown";
}

SweepEngine::SweepEngine(unsigned workers)
    : options_(RuntimeOptions::global()),
      workers_(workers == 0 ? 1 : workers),
      pool_(std::make_unique<ThreadPool>(workers_))
{
}

SweepEngine::SweepEngine(const RuntimeOptions &options)
    : options_(options),
      workers_(options.workerCount() == 0 ? 1 : options.workerCount()),
      pool_(std::make_unique<ThreadPool>(workers_))
{
}

SweepEngine::~SweepEngine() = default;

std::size_t
SweepEngine::enqueueRun(const std::string &workload,
                        const std::string &backend,
                        const ExperimentConfig &config)
{
    jobs_.push_back({workload, backend, config, /*scored=*/false});
    return jobs_.size() - 1;
}

std::size_t
SweepEngine::enqueueCompare(const std::string &workload,
                            const std::string &backend,
                            const ExperimentConfig &config)
{
    jobs_.push_back({workload, backend, config, /*scored=*/true});
    return jobs_.size() - 1;
}

std::size_t
SweepEngine::setJournal(const std::string &path, bool resume)
{
    journal_ = std::make_unique<SweepJournal>();
    replay_.clear();
    // Trace the basename only: trace output must not depend on where
    // the output directory happens to live (tests diff trace streams
    // of runs pointed at different directories).
    const std::size_t slash = path.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::size_t skipped = 0;
    if (resume) {
        // Append only under a current-version header: a file another
        // version wrote (or whose header is garbled) holds no record
        // this build can replay, and records appended after its header
        // would make the whole file unreadable to probe() and merge.
        // It restarts instead. A missing file (Io) is created below.
        const Expected<SweepJournal::HeaderInfo> header =
            SweepJournal::probe(path);
        resume = header.ok() || header.error().code == ErrorCode::Io;
        if (!resume)
            AXM_TRACE(Sweep, "sweep", "journal '", base,
                      "' restarted: not a version-",
                      SweepJournal::version, " journal");
    }
    if (resume) {
        replay_ = SweepJournal::load(path, &skipped);
        if (skipped)
            AXM_TRACE(Sweep, "sweep", "journal '", base, "': ", skipped,
                      " undecodable line(s) ignored (torn write?)");
    }
    const Expected<void> opened = journal_->open(path, !resume);
    if (!opened.ok()) {
        axm_warn("sweep checkpointing disabled: ",
                 opened.error().describe());
        journal_.reset();
    }
    AXM_TRACE(Sweep, "sweep", "journal '", base, "': ", replay_.size(),
              " outcome(s) loaded for replay");
    return replay_.size();
}

std::size_t
SweepEngine::addReplaySegments(const std::vector<std::string> &paths)
{
    std::size_t loaded = 0;
    for (const std::string &path : paths) {
        std::size_t skipped = 0;
        for (auto &[key, outcome] : SweepJournal::load(path, &skipped)) {
            replay_[key] = std::move(outcome);
            ++loaded;
        }
        if (skipped)
            AXM_TRACE(Sweep, "sweep", "segment '", path, "': ", skipped,
                      " undecodable line(s) ignored");
    }
    return loaded;
}

void
SweepEngine::closeJournal(bool removeFile)
{
    if (!journal_)
        return;
    const std::string path = journal_->path();
    journal_->close();
    journal_.reset();
    replay_.clear();
    if (removeFile)
        std::remove(path.c_str());
}

std::vector<SweepOutcome>
SweepEngine::execute()
{
    const auto wallStart = Clock::now();
    AXM_SPAN("sweep", "execute");
    metrics_ = {};
    metrics_.workers = workers_;
    metrics_.jobs = jobs_.size();
    telemetry::metrics().jobsTotal.fetch_add(jobs_.size(),
                                             std::memory_order_relaxed);

    std::vector<SweepOutcome> results(jobs_.size());
    std::vector<char> handled(jobs_.size(), 0);

    // ---- Phase R: replay journaled outcomes (resume). A replayed
    // scored outcome carries its baseline's stats, which also backfill
    // the simulated-instruction accounting for baselines the replay
    // makes unnecessary to re-simulate.
    std::unordered_map<std::string, std::uint64_t> replayedBaseMacro;
    if (!replay_.empty()) {
        AXM_SPAN("sweep", "replay");
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            const auto it = replay_.find(SweepJournal::jobKey(jobs_[i]));
            if (it == replay_.end())
                continue;
            results[i] = it->second;
            results[i].scored = jobs_[i].scored;
            if (!options_.reportTiming)
                results[i].seconds = 0.0;
            handled[i] = 1;
            ++metrics_.restoredJobs;
            telemetry::metrics().jobsDone.fetch_add(
                1, std::memory_order_relaxed);
            const std::string bKey =
                baselineKey(jobs_[i].workload, jobs_[i].config);
            if (isBaseline(jobs_[i]))
                replayedBaseMacro[bKey] =
                    results[i].run.stats.macroInsts;
            else if (jobs_[i].scored)
                replayedBaseMacro[bKey] =
                    results[i].cmp.baseline.stats.macroInsts;
            AXM_TRACE(Sweep, "sweep", "job ", i, " (",
                      jobs_[i].workload, ") replayed from journal");
        }
        if (metrics_.restoredJobs)
            AXM_TRACE(Sweep, "sweep", "resume: ", metrics_.restoredJobs,
                      "/", jobs_.size(), " job(s) replayed");
    }

    // ---- Phase A: prepared-program cache fill. Entries are inserted
    // serially so the map never rehashes under concurrency; the
    // expensive prepare()/build() work runs on the pool, each worker
    // touching only its own entry. Entries are inserted for every job
    // (including replayed ones, keeping the cache metrics identical to
    // an uninterrupted run) but only prepared when a job that will
    // actually simulate needs them.
    std::vector<PreparedEntry *> newPrepared;
    std::vector<PreparedEntry *> toPrepare;
    std::vector<const SweepJob *> prepareSource;
    std::unordered_set<PreparedEntry *> prepareScheduled;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const SweepJob &job = jobs_[i];
        const std::string key =
            prepareKey(job.workload, job.config.dataset);
        auto [it, inserted] = prepared_.try_emplace(key, nullptr);
        if (inserted) {
            it->second = std::make_unique<PreparedEntry>();
            newPrepared.push_back(it->second.get());
        }
        PreparedEntry &entry = *it->second;
        if (!handled[i] && !entry.workload && !entry.failed &&
            prepareScheduled.insert(&entry).second) {
            toPrepare.push_back(&entry);
            prepareSource.push_back(&job);
        }
    }
    AXM_TRACE(Sweep, "sweep", "phase prepare: ", toPrepare.size(),
              " new program(s), ", jobs_.size(), " job(s) pending");
    {
        AXM_SPAN("phase", "sweep.prepare");
        const std::function<void(std::size_t)> fn =
            [&](std::size_t i) {
                AXM_SPAN("phase", "sweep.prepare.job");
                PreparedEntry &entry = *toPrepare[i];
                const SweepJob &job = *prepareSource[i];
                if (interruptRequested()) {
                    entry.failed = true;
                    entry.fault = Error{ErrorCode::Cancelled, "sweep",
                                        "interrupted before prepare"};
                    return;
                }
                const auto start = Clock::now();
                const Attempt a = runWithRetry(
                    [&](unsigned) {
                        entry.mem = SimMemory{}; // fresh on retry
                        entry.workload = makeWorkload(job.workload);
                        entry.workload->prepare(entry.mem,
                                                job.config.dataset);
                        entry.program = entry.workload->build();
                    },
                    options_.retries);
                entry.attempts = a.attempts;
                if (a.status != JobStatus::Ok) {
                    entry.failed = true;
                    entry.fault = a.fault;
                    entry.workload.reset();
                    AXM_TRACE(Sweep, "sweep", "prepare ", job.workload,
                              " faulted: ", a.fault.describe());
                    return;
                }
                entry.seconds = options_.reportTiming
                                    ? secondsSince(start)
                                    : 0.0;
                // Host seconds stay out of the trace (byte-reproducible
                // serial traces); timing lives in the phase spans.
                AXM_TRACE(Sweep, "sweep", "prepared ", job.workload);
            };
        for (std::size_t i = 0; i < toPrepare.size(); ++i)
            pool_->submit([&fn, i] { fn(i); });
        pool_->wait();
    }
    metrics_.preparedPrograms = newPrepared.size();

    // ---- Phase B: baseline result cache fill, one simulation per
    // distinct (workload, dataset, cpu, hierarchy, energy) key that a
    // to-be-simulated job still needs.
    std::vector<BaselineEntry *> newBaselines;
    std::vector<std::string> newBaselineKeys;
    std::vector<BaselineEntry *> toSimulate;
    std::vector<const SweepJob *> baselineSource;
    std::unordered_set<BaselineEntry *> baselineScheduled;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const SweepJob &job = jobs_[i];
        if (!job.scored && !isBaseline(job))
            continue;
        ++metrics_.baselineRequests;
        const std::string key = baselineKey(job.workload, job.config);
        auto [it, inserted] = baselines_.try_emplace(key, nullptr);
        if (inserted) {
            it->second = std::make_unique<BaselineEntry>();
            it->second->prepared =
                prepared_
                    .at(prepareKey(job.workload, job.config.dataset))
                    .get();
            newBaselines.push_back(it->second.get());
            newBaselineKeys.push_back(key);
        }
        BaselineEntry &entry = *it->second;
        if (!handled[i] && !entry.simulated && !entry.failed &&
            baselineScheduled.insert(&entry).second) {
            toSimulate.push_back(&entry);
            baselineSource.push_back(&job);
        }
    }
    AXM_TRACE(Sweep, "sweep", "phase baseline: ", toSimulate.size(),
              " simulated, ",
              metrics_.baselineRequests - toSimulate.size(),
              " served from cache or journal");
    {
        AXM_SPAN("phase", "sweep.baseline");
        const std::function<void(std::size_t)> fn =
            [&](std::size_t i) {
                AXM_SPAN("phase", "sweep.baseline.job");
                BaselineEntry &entry = *toSimulate[i];
                const SweepJob &job = *baselineSource[i];
                if (entry.prepared->failed) {
                    entry.failed = true;
                    entry.fault = entry.prepared->fault;
                    return;
                }
                if (interruptRequested()) {
                    entry.failed = true;
                    entry.fault = Error{ErrorCode::Cancelled, "sweep",
                                        "interrupted before baseline"};
                    return;
                }
                const auto start = Clock::now();
                const Attempt a = runWithRetry(
                    [&](unsigned) {
                        const auto simulate = [&] {
                            SimMemory mem =
                                entry.prepared->mem.clone();
                            const ExperimentRunner runner(job.config);
                            const RunControl control =
                                makeControl(options_);
                            return runner.runPrepared(
                                *entry.prepared->workload,
                                "baseline",
                                entry.prepared->program, mem,
                                &control);
                        };
                        entry.result =
                            options_.isolate
                                ? simulateIsolated(simulate, options_)
                                : simulate();
                    },
                    options_.retries);
                entry.attempts = a.attempts;
                if (a.status != JobStatus::Ok) {
                    entry.failed = true;
                    entry.fault = a.fault;
                    AXM_TRACE(Sweep, "sweep", "baseline ",
                              job.workload,
                              " faulted: ", a.fault.describe());
                    return;
                }
                entry.simulated = true;
                entry.seconds = options_.reportTiming
                                    ? secondsSince(start)
                                    : 0.0;
                telemetry::metrics().macroInsts.fetch_add(
                    entry.result.stats.macroInsts,
                    std::memory_order_relaxed);
                AXM_TRACE(Sweep, "sweep", "baseline ", job.workload,
                          " done");
            };
        for (std::size_t i = 0; i < toSimulate.size(); ++i)
            pool_->submit([&fn, i] { fn(i); });
        pool_->wait();
    }
    metrics_.baselineSimulations = newBaselines.size();

    // ---- Phase C: subject runs, results in submission order.
    AXM_TRACE(Sweep, "sweep", "phase subject: ", jobs_.size(), " job(s)");
    {
        AXM_SPAN("phase", "sweep.subject");
        const std::function<void(std::size_t)> fn = [&](std::size_t i) {
            if (handled[i])
                return; // replayed from the journal in phase R
            AXM_SPAN("phase", "sweep.subject.job");
            AXM_SPAN("job", jobs_[i].workload);
            const SweepJob &job = jobs_[i];
            SweepOutcome &out = results[i];
            out.scored = job.scored;
            const PreparedEntry &prep = *prepared_.at(
                prepareKey(job.workload, job.config.dataset));
            if (prep.failed) {
                out.status = statusForError(prep.fault.code);
                out.fault = prep.fault;
                AXM_TRACE(Sweep, "sweep", "job ", i, " (",
                          job.workload, ") ", jobStatusName(out.status),
                          ": dependency fault");
                return;
            }
            const BaselineEntry *base = nullptr;
            if (job.scored || isBaseline(job)) {
                base = baselines_.at(baselineKey(job.workload,
                                                 job.config))
                           .get();
                if (base->failed) {
                    out.status = statusForError(base->fault.code);
                    out.fault = base->fault;
                    AXM_TRACE(Sweep, "sweep", "job ", i, " (",
                              job.workload, ") ",
                              jobStatusName(out.status),
                              ": baseline fault");
                    return;
                }
            }
            if (interruptRequested()) {
                out.status = JobStatus::Skipped;
                out.fault = Error{ErrorCode::Cancelled, "sweep",
                                  "interrupted before job start"};
                return;
            }

            const auto start = Clock::now();
            const Attempt a = runWithRetry(
                [&](unsigned attempt) {
                    maybeInjectFault(options_, job, attempt);
                    if (isBaseline(job)) {
                        out.run = base->result; // simulated once, shared
                    } else {
                        const auto simulate = [&] {
                            SimMemory mem = prep.mem.clone();
                            const ExperimentRunner runner(job.config);
                            const RunControl control =
                                makeControl(options_);
                            return runner.runPrepared(
                                *prep.workload, job.backend,
                                prep.program, mem, &control);
                        };
                        out.run =
                            options_.isolate
                                ? simulateIsolated(simulate, options_)
                                : simulate();
                    }
                },
                options_.retries);
            out.attempts = a.attempts;
            out.status = a.status;
            out.fault = a.fault;
            if (!isBaseline(job) && out.ok())
                out.seconds = options_.reportTiming
                                  ? secondsSince(start)
                                  : 0.0;
            if (out.ok() && job.scored)
                out.cmp = ExperimentRunner::score(*prep.workload,
                                                  base->result, out.run);
            if (out.ok() && journal_) {
                const std::lock_guard<std::mutex> lock(journalMutex_);
                journal_->append(SweepJournal::jobKey(job), out);
                telemetry::noteJournalAppend();
            }
            {
                // Fleet-metrics accounting: one completed job, its
                // simulated volume (baselines share one cached result,
                // charged once in phase B), memo traffic and LUT
                // occupancy for the status/snapshot rates.
                telemetry::MetricsCounters &tm = telemetry::metrics();
                tm.jobsDone.fetch_add(1, std::memory_order_relaxed);
                if (!isBaseline(job) && out.ok()) {
                    tm.macroInsts.fetch_add(out.run.stats.macroInsts,
                                            std::memory_order_relaxed);
                    tm.memoLookups.fetch_add(out.run.lookups,
                                             std::memory_order_relaxed);
                    tm.memoHits.fetch_add(out.run.hits,
                                          std::memory_order_relaxed);
                    const auto &occ = out.run.stats.dists.l2SetOccupancy;
                    tm.lutLinesSum.fetch_add(occ.sum(),
                                             std::memory_order_relaxed);
                    tm.lutLinesSamples.fetch_add(
                        occ.count(), std::memory_order_relaxed);
                }
            }
            AXM_TRACE(Sweep, "sweep", "job ", i, " (", job.workload,
                      ") ", jobStatusName(out.status));
        };
        if (!shard_) {
            for (std::size_t i = 0; i < jobs_.size(); ++i)
                pool_->submit([&fn, i] { fn(i); });
            pool_->wait();
        } else {
            // Shard drain: every unresolved job is claimed through the
            // shared queue before it simulates. Jobs a sibling worker
            // finished resolve as Foreign (their outcome lives in that
            // worker's journal segment; merge unions it back). Jobs a
            // sibling currently holds stay unresolved and are rescanned
            // — when the holder dies, its lease expires and the claim
            // is stolen, so the sweep always drains.
            std::vector<std::string> keys(jobs_.size());
            for (std::size_t i = 0; i < jobs_.size(); ++i)
                keys[i] = SweepJournal::jobKey(jobs_[i]);
            for (;;) {
                AXM_SPAN("sweep", "shard-round");
                std::atomic<std::size_t> busy{0};
                std::atomic<std::size_t> progress{0};
                for (std::size_t i = 0; i < jobs_.size(); ++i) {
                    if (handled[i])
                        continue;
                    pool_->submit([&, i] {
                        if (interruptRequested()) {
                            results[i].scored = jobs_[i].scored;
                            results[i].status = JobStatus::Skipped;
                            results[i].fault =
                                Error{ErrorCode::Cancelled, "sweep",
                                      "interrupted before job start"};
                            handled[i] = 1;
                            ++progress;
                            return;
                        }
                        switch (shard_->tryClaim(keys[i])) {
                          case ShardQueue::Claim::Done:
                            results[i].scored = jobs_[i].scored;
                            results[i].status = JobStatus::Foreign;
                            handled[i] = 1;
                            ++progress;
                            return;
                          case ShardQueue::Claim::Busy:
                            ++busy;
                            return;
                          case ShardQueue::Claim::Acquired:
                            break;
                        }
                        fn(i);
                        handled[i] = 1;
                        ++progress;
                        // Terminal statuses get a done marker (merge
                        // re-simulates failures deterministically);
                        // an interrupt releases the claim for any
                        // worker to pick up.
                        if (results[i].status == JobStatus::Skipped)
                            shard_->release(keys[i]);
                        else
                            shard_->markDone(keys[i], results[i].ok());
                    });
                }
                pool_->wait();
                if (busy == 0)
                    break;
                // Brief back-off before rescanning jobs a sibling
                // holds: long enough to stop a drained worker from
                // hammering the claims directory, short enough that
                // the tail wait after the last foreign job resolves
                // stays well under one job's runtime.
                if (progress == 0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(std::min(
                            shard_->leaseSeconds() / 4.0, 0.25)));
            }
        }
    }

    // ---- Metrics: every simulation this sweep accounts for. Replayed
    // jobs contribute their journaled instruction counts so a resumed
    // sweep reports the same simulated volume as an uninterrupted one.
    double serial = 0.0;
    std::uint64_t macroInsts = 0;
    for (const PreparedEntry *entry : newPrepared)
        serial += entry->seconds;
    for (std::size_t i = 0; i < newBaselines.size(); ++i) {
        const BaselineEntry *entry = newBaselines[i];
        serial += entry->seconds;
        if (entry->simulated) {
            macroInsts += entry->result.stats.macroInsts;
        } else {
            // Never simulated: every consumer replayed. Charge the
            // journaled baseline instead.
            const auto it = replayedBaseMacro.find(newBaselineKeys[i]);
            if (it != replayedBaseMacro.end())
                macroInsts += it->second;
        }
    }
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const SweepOutcome &out = results[i];
        serial += out.seconds;
        if (!isBaseline(jobs_[i]))
            macroInsts += out.run.stats.macroInsts;
        switch (out.status) {
          case JobStatus::Ok: break;
          case JobStatus::Failed: ++metrics_.failedJobs; break;
          case JobStatus::TimedOut: ++metrics_.timedOutJobs; break;
          case JobStatus::Skipped: ++metrics_.skippedJobs; break;
          case JobStatus::Foreign: ++metrics_.foreignJobs; break;
        }
        if (out.attempts > 1)
            metrics_.retriedJobs += out.attempts - 1;
    }
    metrics_.wallSeconds =
        options_.reportTiming ? secondsSince(wallStart) : 0.0;
    metrics_.serialEstimateSeconds = serial;
    metrics_.simulatedMacroInsts = macroInsts;
    if (metrics_.wallSeconds > 0.0) {
        metrics_.jobsPerSecond =
            static_cast<double>(metrics_.jobs) / metrics_.wallSeconds;
        metrics_.speedupVsSerial = serial / metrics_.wallSeconds;
        metrics_.simulatedMinstrPerSecond =
            static_cast<double>(macroInsts) / 1e6 /
            metrics_.wallSeconds;
    }

    jobs_.clear();
    return results;
}

std::string
SweepEngine::summary() const
{
    std::ostringstream os;
    os.precision(3);
    os << metrics_.jobs << " jobs on " << metrics_.workers
       << " worker(s): " << metrics_.wallSeconds << "s wall, "
       << metrics_.jobsPerSecond << " jobs/s, "
       << metrics_.simulatedMinstrPerSecond << " simulated Minstr/s, "
       << metrics_.speedupVsSerial << "x vs serial ("
       << metrics_.baselineSimulations << "/"
       << metrics_.baselineRequests << " baselines simulated)";
    if (metrics_.faultedJobs() || metrics_.restoredJobs ||
        metrics_.foreignJobs) {
        os << "; " << metrics_.failedJobs << " failed, "
           << metrics_.timedOutJobs << " timed out, "
           << metrics_.skippedJobs << " skipped, "
           << metrics_.restoredJobs << " replayed";
        if (metrics_.foreignJobs)
            os << ", " << metrics_.foreignJobs
               << " done by other workers";
    }
    return os.str();
}

void
SweepEngine::writeReport(const std::string &label,
                         const std::string &outDir) const
{
    const std::string path =
        joinPath(resolveOutputDir(outDir), label + "_sweep.json");
    std::ostringstream out;
    out.precision(9);
    out << "{\n"
        << "  \"label\": \"" << jsonEscape(label) << "\",\n"
        << "  \"workers\": " << metrics_.workers << ",\n"
        << "  \"jobs\": " << metrics_.jobs << ",\n"
        << "  \"wall_seconds\": " << metrics_.wallSeconds << ",\n"
        << "  \"serial_estimate_seconds\": "
        << metrics_.serialEstimateSeconds << ",\n"
        << "  \"speedup_vs_serial\": " << metrics_.speedupVsSerial
        << ",\n"
        << "  \"jobs_per_second\": " << metrics_.jobsPerSecond << ",\n"
        << "  \"simulated_macro_insts\": "
        << metrics_.simulatedMacroInsts << ",\n"
        << "  \"simulated_minstr_per_second\": "
        << metrics_.simulatedMinstrPerSecond << ",\n"
        << "  \"baseline_requests\": " << metrics_.baselineRequests
        << ",\n"
        << "  \"baseline_simulations\": "
        << metrics_.baselineSimulations << ",\n"
        << "  \"prepared_programs\": " << metrics_.preparedPrograms;
    // Fault counters appear only when something faulted or retried, so
    // a fully-successful sweep's report keeps its historical bytes.
    // The replayed count deliberately stays out: a resumed and an
    // uninterrupted run of the same sweep must render identically.
    if (metrics_.faultedJobs() || metrics_.retriedJobs) {
        out << ",\n  \"failed_jobs\": " << metrics_.failedJobs
            << ",\n  \"timed_out_jobs\": " << metrics_.timedOutJobs
            << ",\n  \"skipped_jobs\": " << metrics_.skippedJobs
            << ",\n  \"retried_jobs\": " << metrics_.retriedJobs;
    }
    out << "\n}\n";
    const Expected<void> written = atomicWriteFile(path, out.str());
    if (!written.ok())
        axm_warn("cannot write sweep report: ",
                 written.error().describe());
}

} // namespace axmemo
