/**
 * @file
 * Read-only fleet view over a shard directory (DESIGN.md §13).
 *
 * `axmemo status <dir>` is a pure observer: it never takes claims,
 * writes markers or joins the queue — it reads the artifacts the
 * workers already maintain (claim leases, done markers, metrics
 * snapshots, shard manifests) and classifies each worker:
 *
 *   running  fresh metrics heartbeat (younger than the lease window)
 *   idle     fresh heartbeat but no claim held (waiting on siblings)
 *   done     shard manifest written (worker exited cleanly)
 *   dead     stale heartbeat and no manifest — SIGKILLed or wedged;
 *            its claims are visible in the watchlist until a sibling
 *            steals them
 *
 * Fleet progress comes from the done markers (the queue's own ground
 * truth, not any worker's view), throughput and the ETA from the
 * EWMA rates in the newest snapshot of every live worker.
 *
 * The same file hosts the timeline stitcher `axmemo merge` uses to
 * splice per-worker Chrome-trace files (telemetry::renderTimeline()
 * documents the driver writes through atomicWriteFile) into one fleet
 * timeline.
 */

#ifndef AXMEMO_CORE_FLEET_STATUS_HH
#define AXMEMO_CORE_FLEET_STATUS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace axmemo {

/** One worker's classified state + newest snapshot fields. */
struct WorkerStatus
{
    enum class State { Running, Idle, Done, Dead };

    std::string id;
    State state = State::Idle;
    /** Seconds since the newest metrics snapshot (-1: none seen). */
    double snapshotAgeSeconds = -1.0;
    std::uint64_t jobsDone = 0;
    double jobsPerSecond = 0.0;
    double minstrPerSecond = 0.0;
    double memoHitRate = 0.0;
    double lutOccupancy = 0.0;
    std::uint64_t rssBytes = 0;
    double journalLagSeconds = -1.0;
    std::size_t claimsHeld = 0;
};

/** One live claim, oldest-first in the watchlist. */
struct ClaimStatus
{
    std::string key;    ///< full job identity key from the lease body
    std::string worker; ///< holder id
    double ageSeconds = 0.0;
};

/** The whole fleet, as read from one shard directory. */
struct FleetStatus
{
    std::string dir;            ///< shard directory actually read
    double leaseSeconds = 30.0; ///< staleness window used
    std::vector<WorkerStatus> workers;
    std::uint64_t jobsTotal = 0;  ///< max jobs_total any worker saw
    std::uint64_t jobsDone = 0;   ///< done markers (fleet ground truth)
    std::uint64_t jobsFailed = 0; ///< "status":"failed" done markers
    double aggregateJobsPerSecond = 0.0;
    double aggregateMinstrPerSecond = 0.0;
    /** remaining / aggregate EWMA rate; -1 when unknowable (no rate
     * or no total yet). */
    double etaSeconds = -1.0;
    /** Jobs remain but the aggregate EWMA throughput has decayed to
     * zero — every live worker is wedged (or everything alive is
     * dead). Rendered as "ETA stalled" instead of a finite ETA, so a
     * hung fleet is not mistaken for one that is merely unmeasured. */
    bool stalled = false;
    /** Live claims, oldest first — the slowest-job watchlist. */
    std::vector<ClaimStatus> watchlist;
};

const char *workerStateName(WorkerStatus::State state);

/**
 * Read @p dir as a shard directory. When @p dir has no claims/ but
 * contains a shards/ subdirectory (the default --workers layout under
 * a run's --out), that subdirectory is read instead. A missing or
 * empty directory yields an empty fleet, not an error — status must
 * be pollable before the first worker arrives.
 */
FleetStatus readFleetStatus(const std::string &dir, double leaseSeconds);

/** One-screen human view: header, progress bar, per-worker table,
 * slowest-claim watchlist. */
std::string renderFleetText(const FleetStatus &fleet);

/** The same view as one JSON object (--json). */
std::string renderFleetJson(const FleetStatus &fleet);

/**
 * Splice per-worker timeline files into one Chrome-trace document.
 * Each input must be a file holding one complete
 * telemetry::renderTimeline() document (validated before splicing;
 * damaged files are skipped and counted in @p damaged when non-null).
 * @p extraDocument optionally appends the calling process's own
 * renderTimeline() output as one more lane.
 */
std::string stitchTimelines(const std::vector<std::string> &paths,
                            const std::string &extraDocument = {},
                            std::size_t *damaged = nullptr);

} // namespace axmemo

#endif // AXMEMO_CORE_FLEET_STATUS_HH
