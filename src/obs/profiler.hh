/**
 * @file
 * Scoped phase timers aggregated per phase and per worker thread.
 *
 * `AXM_PROF("sweep.prepare")` opens a RAII scope whose wall-clock time
 * is added to the process-wide Profiler under the key
 * (phase, thread label). The driver reads the aggregate to serve
 * `axmemo profile`. Timers are always on — one steady_clock read per
 * scope boundary plus a mutex-guarded map update at close, which is
 * noise next to the phases they bracket (whole sweeps, artifact
 * stages) — so profile data is available without any flag. The Prof
 * debug flag additionally emits begin/end trace lines for
 * phase-ordering questions.
 */

#ifndef AXMEMO_OBS_PROFILER_HH
#define AXMEMO_OBS_PROFILER_HH

#include "obs/span.hh"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace axmemo {
namespace obs {

/** One aggregated (phase, thread) timing cell. */
struct PhaseTiming
{
    std::string phase;   ///< phase name as given to AXM_PROF
    std::string thread;  ///< worker label ("" = main thread)
    std::uint64_t calls; ///< number of closed scopes
    double seconds;      ///< total wall-clock across those scopes
};

/**
 * Process-wide phase-timer aggregate. All methods are thread-safe;
 * record() is called from every closing ScopedPhase.
 */
class Profiler
{
  public:
    static Profiler &instance();

    /** Add one closed scope of @p seconds to (phase, current thread). */
    void record(const std::string &phase, double seconds);

    /** Snapshot every cell, ordered by first-recorded phase then
     * thread label. */
    std::vector<PhaseTiming> snapshot() const;

    /** Cells merged across threads: one row per phase, ordered by
     * first-recorded phase. */
    std::vector<PhaseTiming> snapshotByPhase() const;

    /** Drop all recorded timings (per-run isolation in the driver). */
    void reset();

    /** Human-readable table (phase, calls, total, share of the longest
     * phase) — the `axmemo profile` report body. */
    std::string renderText() const;

  private:
    Profiler() = default;
};

/**
 * RAII phase scope: measures construction-to-destruction wall clock and
 * records it into Profiler::instance(). Emits Prof-flag trace lines at
 * both edges when that flag is enabled, and doubles as a "phase"
 * timeline span, so every AXM_PROF point appears in --trace-timeline
 * output while `axmemo profile` keeps reading the same aggregate.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const char *phase);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    const char *phase_;
    telemetry::ScopedSpan span_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace axmemo

#define AXM_PROF_CONCAT2(a, b) a##b
#define AXM_PROF_CONCAT(a, b) AXM_PROF_CONCAT2(a, b)

/** Time the rest of the enclosing scope under @p phase. */
#define AXM_PROF(phase)                                                      \
    ::axmemo::obs::ScopedPhase AXM_PROF_CONCAT(axmProfScope_,                \
                                               __LINE__)(phase)

#endif // AXMEMO_OBS_PROFILER_HH
