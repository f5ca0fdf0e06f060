/**
 * @file
 * Hierarchical run-timeline spans (DESIGN.md §13), the one host-timing
 * primitive.
 *
 * The trace flags (obs/trace.hh) answer "what happened, event by
 * event" in simulated cycles. Spans answer the host-time questions:
 * *when* did each sweep round, job and pipeline phase run, on which
 * worker thread, nested under what — the timeline view that Perfetto /
 * chrome://tracing renders, and the per-worker lane data `axmemo
 * merge` stitches across a shard fleet — and, aggregated over the
 * "phase" category, where the wall clock went (the `axmemo profile`
 * table, obs/telemetry.hh).
 *
 * A span is an RAII scope (`AXM_SPAN("job", workload)`): construction
 * stamps a start time, allocates a span id, and pushes itself as the
 * thread's current parent; destruction pops and appends one fixed-size
 * SpanEvent record to the calling thread's ring buffer. The buffers are
 * single-producer/single-consumer: the owning thread appends with
 * release stores, the telemetry collector (obs/telemetry.hh) drains
 * with acquire loads, no lock on the hot path. When recording is
 * disarmed — the default — a span costs one relaxed atomic load and a
 * predictable branch, the same budget as a disabled trace point.
 * Spans are compiled into every build: the trace layer's compile-time
 * kill switch removes only AXM_TRACE points.
 */

#ifndef AXMEMO_OBS_SPAN_HH
#define AXMEMO_OBS_SPAN_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace axmemo {
namespace telemetry {

/** One drained timeline record (a closed span or a counter sample). */
struct SpanEvent
{
    enum class Kind : std::uint8_t
    {
        Span,    ///< closed AXM_SPAN scope ("X" complete event)
        Counter, ///< counter(name, value) sample ("C" event)
    };

    Kind kind = Kind::Span;
    char category[16] = "";  ///< coarse lane: "phase", "job", "shard"...
    char name[48] = "";      ///< span/counter name (truncated to fit)
    char thread[16] = "";    ///< obs::threadLabel() at emit ("" = main)
    std::uint64_t id = 0;     ///< span id, unique per process
    std::uint64_t parent = 0; ///< enclosing span id (0 = root)
    std::uint64_t startUs = 0; ///< µs since the telemetry epoch
    std::uint64_t durUs = 0;   ///< span wall-clock µs (counters: 0)
    double value = 0.0;        ///< counter value (spans: 0)
};

namespace detail {
/** Span recording armed? One relaxed load guards every span point. */
extern std::atomic<bool> recording;
/** The calling thread's innermost open span id (parent of new spans). */
std::uint64_t currentSpan();
/** Stamp the thread label and append one event to the calling
 * thread's ring buffer. */
void emit(SpanEvent event);
/** Enter/leave a span scope on this thread's parent stack. */
std::uint64_t beginSpan();
void endSpan(std::uint64_t previousParent);
/** µs since the process-wide telemetry epoch (steady clock). */
std::uint64_t nowUs();
/**
 * Drain every thread's ring buffer into @p out (collector side of the
 * SPSC rings; obs/telemetry.hh is the only intended caller).
 * @return events dropped to ring overflow since the last drain.
 */
std::uint64_t drainAll(std::vector<SpanEvent> &out);
} // namespace detail

/** @return true iff span recording is armed (--trace-timeline,
 * `axmemo profile`). */
inline bool
enabled()
{
    return detail::recording.load(std::memory_order_relaxed);
}

/** Arm or disarm span recording process-wide (obs/telemetry.hh owns
 * the drained data). */
void setEnabled(bool on);

/**
 * RAII timeline span. Inactive (one relaxed load, nothing else) unless
 * telemetry is enabled at construction; active spans nest through a
 * thread-local parent stack, so the exported timeline reproduces the
 * sweep → job → phase hierarchy.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *category, const char *name)
    {
        if (enabled())
            open(category, name);
    }

    ScopedSpan(const char *category, const std::string &name)
    {
        if (enabled())
            open(category, name.c_str());
    }

    ~ScopedSpan()
    {
        if (active_)
            close();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    void open(const char *category, const char *name);
    void close();

    bool active_ = false;
    std::uint64_t savedParent_ = 0;
    /** Placement-constructed by open() only: value-initializing the
     * ~150-byte event on every disabled span would cost ~10ns and blow
     * the trace-guard budget. Trivially destructible, so the inactive
     * path never touches it. */
    union
    {
        SpanEvent event_;
    };
};

/**
 * Record one counter sample (rendered as a Perfetto counter track).
 * Cheap no-op when telemetry is disabled; use for occupancy/backlog
 * style values worth seeing against the span timeline.
 */
inline void
counter(const char *name, double value)
{
    if (!enabled())
        return;
    SpanEvent event;
    event.kind = SpanEvent::Kind::Counter;
    std::size_t i = 0;
    for (; name[i] && i + 1 < sizeof(event.name); ++i)
        event.name[i] = name[i];
    event.name[i] = '\0';
    event.startUs = detail::nowUs();
    event.parent = detail::currentSpan();
    event.value = value;
    detail::emit(event);
}

} // namespace telemetry
} // namespace axmemo

#define AXM_SPAN_CONCAT2(a, b) a##b
#define AXM_SPAN_CONCAT(a, b) AXM_SPAN_CONCAT2(a, b)

/** Open a timeline span covering the rest of the enclosing scope. */
#define AXM_SPAN(category, name)                                             \
    ::axmemo::telemetry::ScopedSpan AXM_SPAN_CONCAT(                         \
        axmSpanScope_, __LINE__)((category), (name))

#endif // AXMEMO_OBS_SPAN_HH
