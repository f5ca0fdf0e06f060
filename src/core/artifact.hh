/**
 * @file
 * The paper-artifact registry: every table, figure and ablation of the
 * evaluation is an Artifact — a named unit that enqueues its job matrix
 * on a SweepEngine and reduces the outcomes to a text report plus
 * machine-readable JSON rows. Artifacts self-register at static-init
 * time (AXMEMO_REGISTER_ARTIFACT), so the `axmemo` driver and the
 * tests run the exact same code through runArtifact().
 *
 * The run pipeline (runArtifact) is:
 *   banner -> enqueue(engine) -> execute -> reduce(outcomes)
 *   -> stdout text (byte-identical to the pre-registry harnesses)
 *   -> <name>_sweep.json (host-side performance)
 *   -> <name>.json (result rows, optional)
 *   -> manifest record (exact serialized config of every job)
 */

#ifndef AXMEMO_CORE_ARTIFACT_HH
#define AXMEMO_CORE_ARTIFACT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep.hh"

namespace axmemo {

/** What reduce() hands back to the runner. */
struct ArtifactResult
{
    /** Report body printed to stdout (everything after the banner). */
    std::string text;
    /**
     * One JSON object per result row. Leave empty to let the runner
     * generate the default rows: each enqueued job's workload, mode,
     * canonical config, run result and (when scored) comparison.
     */
    std::vector<std::string> jsonRows;
};

/** One paper artifact; see file comment. */
class Artifact
{
  public:
    virtual ~Artifact() = default;

    /** Registry name, and the label of every emitted file. */
    virtual std::string name() const = 0;
    /** Banner headline; empty suppresses the banner. */
    virtual std::string title() const = 0;
    /** One-line description for `axmemo --list`. */
    virtual std::string description() const = 0;

    /** Enqueue the artifact's job matrix (may be empty for artifacts
     * that compute outside the sweep engine). Called exactly once,
     * before reduce(); state needed by reduce() lives in members. */
    virtual void enqueue(SweepEngine &engine) = 0;

    /** Consume the outcomes (submission order) and build the report. */
    virtual ArtifactResult
    reduce(const std::vector<SweepOutcome> &outcomes) = 0;
};

/** Registry row for listing. */
struct ArtifactInfo
{
    std::string name;
    std::string description;
    int order = 0;
};

/** Process-wide artifact registry (populated by static registrars). */
class ArtifactRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Artifact>()>;

    static ArtifactRegistry &instance();

    /** Register @p factory; @p order controls listing/run-all order. */
    void add(int order, Factory factory);

    /** All artifacts, sorted by (order, name). */
    std::vector<ArtifactInfo> list() const;

    /** @return a fresh instance, or nullptr for unknown names. */
    std::unique_ptr<Artifact> make(const std::string &name) const;

  private:
    struct Entry
    {
        int order = 0;
        std::string name;
        std::string description;
        Factory factory;
    };
    std::vector<Entry> entries_;
};

/** Static-init helper behind AXMEMO_REGISTER_ARTIFACT. */
struct ArtifactRegistrar
{
    ArtifactRegistrar(int order, ArtifactRegistry::Factory factory);
};

/** Define at namespace scope in the artifact's .cc file. */
#define AXMEMO_REGISTER_ARTIFACT(order, cls)                                 \
    static const ::axmemo::ArtifactRegistrar axmemoArtifactReg_##cls{        \
        order, [] { return std::make_unique<cls>(); }};

/** Multi-process sharding role of one runArtifact() call. */
enum class ShardMode
{
    /** Single process: the standard pipeline. */
    Off,
    /** Cooperating worker: claim jobs through the attached ShardQueue,
     * journal outcomes to this worker's segment, and emit NO reports —
     * no stdout, no <name>.json/_sweep.json/_stats, no manifest entry.
     * Reports are the merge step's job. */
    Worker,
    /** Reduce a shard directory: union every readable journal segment
     * into the replay map, re-simulate whatever is missing, and emit
     * the full standard outputs — byte-identical to a single-process
     * run of the same artifact (same --jobs, --no-timing). */
    Merge,
};

/** How runArtifact emits its outputs. */
struct ArtifactRunOptions
{
    /** Output directory override; empty resolves $AXMEMO_SWEEP_DIR. */
    std::string outDir;
    /** Write <name>_sweep.json when the artifact enqueued jobs. */
    bool writeSweepReport = true;
    /** Write <name>.json result rows. */
    bool writeRows = false;
    /** Print the rows document to stdout instead of banner + tables. */
    bool rowsToStdout = false;
    /** Write <name>_stats.txt: one gem5-like statistics section per
     * run, with distribution stats next to their scalar twins. */
    bool writeStats = false;
    /** Engine sizing and fault policy (workers, retries, watchdog,
     * timing); the driver passes its frozen copy. */
    RuntimeOptions runtime = RuntimeOptions::global();
    /** Checkpoint every completed job to <name>_sweep.ckpt; the file
     * is deleted again after a fully successful run. */
    bool journal = false;
    /** Replay a matching checkpoint before simulating (implies
     * journal). */
    bool resume = false;
    /** Sharding role; Worker requires queue, Merge requires shardDir. */
    ShardMode shardMode = ShardMode::Off;
    /** Worker mode: the shared work-queue (owned by the driver, shared
     * across every artifact of the invocation). */
    ShardQueue *queue = nullptr;
    /** Merge mode: the shard directory holding journal segments and
     * per-worker shard manifests. */
    std::string shardDir;
};

/** Driver-side record of one completed runArtifact. */
struct ArtifactRunRecord
{
    /** Manifest entry: artifact, wall seconds, every job's exact
     * serialized config — plus per-run status when jobs faulted. */
    std::string manifestRun;
    double wallSeconds = 0.0;

    // Job-status aggregation (mirrors SweepMetrics).
    std::size_t jobs = 0;
    std::size_t failedJobs = 0;
    std::size_t timedOutJobs = 0;
    std::size_t skippedJobs = 0;
    std::size_t restoredJobs = 0;
    std::size_t retriedJobs = 0;
    /** Jobs another shard worker completed (Worker mode only). */
    std::size_t foreignJobs = 0;
    /** Journal segments probe() rejected (Merge mode only); their jobs
     * were re-simulated, but the driver reports a nonzero exit. */
    std::size_t damagedSegments = 0;
    /** Simulated volume, for the per-worker shard manifest. */
    std::uint64_t simulatedMacroInsts = 0;

    std::size_t
    faultedJobs() const
    {
        return failedJobs + timedOutJobs + skippedJobs;
    }
};

/**
 * Execute one artifact through the standard pipeline. Per-job faults
 * are contained by the sweep engine and reported through the record's
 * status counts (the driver turns faultedJobs() into a nonzero exit);
 * the Error return covers artifact-level failures — enqueue/reduce
 * threw, or an emitted file could not be written.
 */
Expected<ArtifactRunRecord>
runArtifact(Artifact &artifact, const ArtifactRunOptions &options = {});

/** printf-append to a std::string (report-text building helper). */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void
appendf(std::string &out, const char *fmt, ...);

} // namespace axmemo

#endif // AXMEMO_CORE_ARTIFACT_HH
