/**
 * @file
 * The sweep execution engine: parallel evaluation of experiment matrices.
 *
 * Every paper artifact (Tables 1-5, Figs. 7-11, the ablations) is a sweep
 * over {workloads} x {backends} x {configurations}. Each simulation is
 * deterministic (seeded-xorshift datasets, single-threaded core model)
 * and owns all of its mutable state, so whole runs are embarrassingly
 * parallel. Callers enqueue (workload, backend, config) jobs; a fixed-size
 * worker pool (AXMEMO_JOBS, default: hardware threads) runs each job in
 * its own Simulator/SimMemory instance, and execute() returns results in
 * deterministic submission order regardless of completion order.
 *
 * Two caches remove redundant work the serial harnesses used to repeat:
 *
 *  - Prepared-program cache, keyed by (workload, dataset params): the
 *    dataset is synthesized and the baseline AxIR program built once;
 *    every run clones the prepared memory image instead of re-running
 *    prepare()/build().
 *  - Baseline result cache, keyed by (workload, dataset params,
 *    CpuConfig, HierarchyConfig, EnergyParams) — everything a baseline
 *    run can observe. Each distinct baseline is simulated exactly once
 *    per sweep and shared across the modes and LUT configurations scored
 *    against it.
 *
 * Fault tolerance (see DESIGN.md §9). A job that throws is caught at
 * the worker boundary and recorded as its outcome's status — Failed
 * jobs are retried up to RuntimeOptions::retries times, TimedOut
 * (watchdog) and Skipped (interrupt) never — so one bad configuration
 * costs one row, not the sweep. With setJournal(), every Ok outcome is
 * checkpointed to an append-only JSONL file as it completes, and a
 * resumed sweep replays journaled outcomes instead of re-simulating
 * (core/run_journal.hh).
 *
 * The engine records wall-clock, per-job time, jobs/s and simulated
 * Minstr/s; writeReport() emits them as <label>_sweep.json so the
 * performance trajectory of the harnesses is machine-readable.
 */

#ifndef AXMEMO_CORE_SWEEP_HH
#define AXMEMO_CORE_SWEEP_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hh"
#include "common/runtime_options.hh"
#include "common/thread_pool.hh"
#include "core/experiment.hh"

namespace axmemo {

class ShardQueue;
class SweepJournal;

/** One enqueued simulation request. */
struct SweepJob
{
    std::string workload;
    /** Registered MemoBackend name — the sweep's backend axis. */
    std::string backend = "baseline";
    ExperimentConfig config{};
    /** Also score against the cached baseline (fills SweepOutcome.cmp). */
    bool scored = false;
};

/** Terminal state of one job. */
enum class JobStatus
{
    Ok,       ///< simulation completed (possibly after retries)
    Failed,   ///< faulted on every allowed attempt
    TimedOut, ///< watchdog deadline expired (never retried)
    Skipped,  ///< not run: interrupted, or a dependency failed
    Foreign,  ///< not run here: another shard worker owns the result
};

/** @return the stable lower-case name of @p status ("ok", ...). */
const char *jobStatusName(JobStatus status);

/** Result of one job, in submission order. */
struct SweepOutcome
{
    /** The subject run (for Baseline jobs, the baseline itself).
     * Meaningful only when status == Ok. A replayed run has no
     * outputs, only their digest. */
    RunResult run;
    /** Valid only when scored and status == Ok. */
    Comparison cmp;
    /** Host wall-clock seconds this job's simulation took (0 when
     * RuntimeOptions::reportTiming is off). */
    double seconds = 0.0;

    JobStatus status = JobStatus::Ok;
    /** The last attempt's error when status != Ok. */
    Error fault{};
    /** Simulation attempts made (attempts - 1 = retries). */
    unsigned attempts = 0;
    /** The job was enqueued via enqueueCompare(). */
    bool scored = false;
    /** Replayed from the checkpoint journal, not simulated. */
    bool restored = false;

    bool ok() const { return status == JobStatus::Ok; }
};

/** Host-side performance record of one execute(). */
struct SweepMetrics
{
    unsigned workers = 0;
    std::size_t jobs = 0;
    double wallSeconds = 0.0;
    /** Sum of per-simulation host seconds = serial cost of this sweep. */
    double serialEstimateSeconds = 0.0;
    double jobsPerSecond = 0.0;
    /** serialEstimateSeconds / wallSeconds (1.0 when serial). */
    double speedupVsSerial = 1.0;
    std::uint64_t simulatedMacroInsts = 0;
    double simulatedMinstrPerSecond = 0.0;
    /** Baselines needed vs actually simulated (cache effectiveness). */
    std::size_t baselineRequests = 0;
    std::size_t baselineSimulations = 0;
    /** Distinct (workload, dataset) prepare()/build() executions. */
    std::size_t preparedPrograms = 0;

    // Fault-tolerance accounting of the most recent execute().
    std::size_t failedJobs = 0;
    std::size_t timedOutJobs = 0;
    std::size_t skippedJobs = 0;
    /** Extra attempts spent on jobs that eventually resolved. */
    std::size_t retriedJobs = 0;
    /** Jobs replayed from the checkpoint journal. */
    std::size_t restoredJobs = 0;
    /** Jobs another shard worker completed (shard mode only). */
    std::size_t foreignJobs = 0;

    std::size_t
    faultedJobs() const
    {
        // Foreign jobs are not faults: their results exist, in another
        // worker's journal segment, and merge unions them back in.
        return failedJobs + timedOutJobs + skippedJobs;
    }
};

/** Parallel sweep executor; see file comment. */
class SweepEngine
{
  public:
    /** @param workers pool size; 0 or 1 = serial (AXMEMO_JOBS default).
     * Retry/timeout/timing policy comes from RuntimeOptions::global(). */
    explicit SweepEngine(
        unsigned workers = RuntimeOptions::global().workerCount());

    /** Pool size and fault policy from @p options (the driver path). */
    explicit SweepEngine(const RuntimeOptions &options);

    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /** Enqueue a raw run under the backend named @p backend. @return
     * the job's index into execute()'s result vector. */
    std::size_t enqueueRun(const std::string &workload,
                           const std::string &backend,
                           const ExperimentConfig &config);

    /** Enqueue a run that is also scored against the cached baseline of
     * its (workload, dataset, cpu, hierarchy, energy) key. */
    std::size_t enqueueCompare(const std::string &workload,
                               const std::string &backend,
                               const ExperimentConfig &config);

    /**
     * Run every job enqueued since the last execute(). Results are in
     * submission order and bit-identical to a serial per-job
     * ExperimentRunner::run()/compare() evaluation. Job faults are
     * contained: execute() itself only throws on engine-internal bugs.
     */
    std::vector<SweepOutcome> execute();

    /**
     * Enable checkpoint journaling to @p path. With @p resume, existing
     * records are loaded for replay and new ones append after them;
     * otherwise, or when the file's header is not the current journal
     * version, the file restarts empty.
     * @return number of journaled outcomes loaded for replay.
     */
    std::size_t setJournal(const std::string &path, bool resume);

    /** Stop journaling; delete the file when @p removeFile (a fully
     * successful sweep needs no checkpoint). */
    void closeJournal(bool removeFile);

    /**
     * Attach a shared work-queue (core/shard_queue.hh) for the next
     * execute(): each job is claimed before it simulates, jobs a
     * sibling worker owns or finished resolve as JobStatus::Foreign,
     * and claimed jobs get a done marker (Ok/Failed/TimedOut) or a
     * claim release (Skipped) when they resolve. The queue must
     * outlive the engine; nullptr detaches.
     */
    void setShardQueue(ShardQueue *queue) { shard_ = queue; }

    /**
     * Union extra journal segments into the replay map (merge step:
     * one segment per shard worker). Later segments win duplicate
     * keys; records are deterministic, so duplicates are identical.
     * @return records loaded from @p paths.
     */
    std::size_t
    addReplaySegments(const std::vector<std::string> &paths);

    unsigned workers() const { return workers_; }

    /** The fault policy this engine runs under. */
    const RuntimeOptions &options() const { return options_; }

    /** Metrics of the most recent execute(). */
    const SweepMetrics &metrics() const { return metrics_; }

    /** One-line human-readable summary of metrics(). */
    std::string summary() const;

    /**
     * Write metrics() as JSON to <label>_sweep.json in the resolved
     * output directory (@p outDir override, else $AXMEMO_SWEEP_DIR,
     * else the current directory; see core/output_paths.hh). Fault
     * counters are emitted only when nonzero, so fully-successful
     * sweeps keep their historical byte layout.
     */
    void writeReport(const std::string &label,
                     const std::string &outDir = {}) const;

    /** Jobs enqueued since the last execute(), in submission order
     * (the driver snapshots these into manifest.json). */
    const std::vector<SweepJob> &pending() const { return jobs_; }

  private:
    struct PreparedEntry
    {
        std::unique_ptr<Workload> workload;
        SimMemory mem;   ///< master prepared image; jobs clone it
        Program program; ///< built baseline program, shared read-only
        double seconds = 0.0;
        bool failed = false;
        Error fault{};
        unsigned attempts = 0;
    };
    struct BaselineEntry
    {
        const PreparedEntry *prepared = nullptr;
        RunResult result;
        double seconds = 0.0;
        /** False for entries every consumer replayed from the journal
         * (the baseline simulation itself was skipped). */
        bool simulated = false;
        bool failed = false;
        Error fault{};
        unsigned attempts = 0;
    };

    std::vector<SweepJob> jobs_;
    std::unordered_map<std::string, std::unique_ptr<PreparedEntry>>
        prepared_;
    std::unordered_map<std::string, std::unique_ptr<BaselineEntry>>
        baselines_;
    SweepMetrics metrics_;
    RuntimeOptions options_{};
    unsigned workers_ = 1;
    std::unique_ptr<ThreadPool> pool_;

    // Checkpoint journal state (setJournal).
    std::unique_ptr<SweepJournal> journal_;
    std::unordered_map<std::string, SweepOutcome> replay_;
    std::mutex journalMutex_;

    /** Shared work-queue for shard mode; not owned (setShardQueue). */
    ShardQueue *shard_ = nullptr;
};

} // namespace axmemo

#endif // AXMEMO_CORE_SWEEP_HH
