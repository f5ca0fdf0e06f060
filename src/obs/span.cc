#include "obs/span.hh"

#include "obs/trace.hh"

#include <chrono>
#include <cstring>
#include <mutex>
#include <new>

namespace axmemo {
namespace telemetry {
namespace detail {

std::atomic<bool> recording{false};

namespace {

/**
 * Single-producer/single-consumer event ring. The owning thread is the
 * only writer (emit), the telemetry collector the only reader (drain);
 * a release store on writeIdx publishes the slot, an acquire load on
 * the reader side observes it. Full ring → the event is counted in
 * `dropped` and discarded, never blocking the simulator.
 *
 * Buffers are allocated on a thread's first enabled emit, registered
 * in a global list, and deliberately never freed: sweep worker threads
 * exit before the end-of-run drain, and the collector must still be
 * able to read their tails.
 */
struct SpanBuffer
{
    static constexpr std::size_t capacity = std::size_t{1} << 14;

    SpanEvent slots[capacity];
    std::atomic<std::uint64_t> writeIdx{0};
    std::atomic<std::uint64_t> readIdx{0};
    std::atomic<std::uint64_t> dropped{0};

    void
    push(const SpanEvent &event)
    {
        const std::uint64_t write = writeIdx.load(std::memory_order_relaxed);
        const std::uint64_t read = readIdx.load(std::memory_order_acquire);
        if (write - read >= capacity) {
            dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        slots[write % capacity] = event;
        writeIdx.store(write + 1, std::memory_order_release);
    }
};

std::mutex &
registryMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::vector<SpanBuffer *> &
registry()
{
    // Never destroyed, like the buffers it lists: an exited worker's
    // buffer stays reachable through it until the process ends.
    static auto *buffers = new std::vector<SpanBuffer *>;
    return *buffers;
}

thread_local SpanBuffer *tlsBuffer = nullptr;
thread_local std::uint64_t tlsCurrentSpan = 0;

std::atomic<std::uint64_t> nextSpanId{1};

SpanBuffer &
threadBuffer()
{
    if (!tlsBuffer) {
        auto *buffer = new SpanBuffer;
        std::lock_guard<std::mutex> lock(registryMutex());
        registry().push_back(buffer);
        tlsBuffer = buffer;
    }
    return *tlsBuffer;
}

} // namespace

std::uint64_t
currentSpan()
{
    return tlsCurrentSpan;
}

void
emit(SpanEvent event)
{
    const char *label = obs::threadLabel();
    std::size_t i = 0;
    for (; label[i] && i + 1 < sizeof(event.thread); ++i)
        event.thread[i] = label[i];
    event.thread[i] = '\0';
    threadBuffer().push(event);
}

std::uint64_t
beginSpan()
{
    const std::uint64_t previous = tlsCurrentSpan;
    tlsCurrentSpan = nextSpanId.fetch_add(1, std::memory_order_relaxed);
    return previous;
}

void
endSpan(std::uint64_t previousParent)
{
    tlsCurrentSpan = previousParent;
}

std::uint64_t
nowUs()
{
    using namespace std::chrono;
    // The epoch is the first call, made at static-init time below, so
    // every thread's timestamps share one zero point.
    static const steady_clock::time_point epoch = steady_clock::now();
    return static_cast<std::uint64_t>(
        duration_cast<microseconds>(steady_clock::now() - epoch).count());
}

namespace {
// Pin the epoch before main() so timestamps start near zero even when
// telemetry is armed late from the CLI.
const std::uint64_t epochAnchor = nowUs();
} // namespace

std::uint64_t
drainAll(std::vector<SpanEvent> &out)
{
    (void)epochAnchor;
    std::lock_guard<std::mutex> lock(registryMutex());
    std::uint64_t droppedTotal = 0;
    for (SpanBuffer *buffer : registry()) {
        std::uint64_t read = buffer->readIdx.load(std::memory_order_relaxed);
        const std::uint64_t write =
            buffer->writeIdx.load(std::memory_order_acquire);
        for (; read != write; ++read)
            out.push_back(buffer->slots[read % SpanBuffer::capacity]);
        buffer->readIdx.store(read, std::memory_order_release);
        droppedTotal += buffer->dropped.exchange(0,
                                                 std::memory_order_relaxed);
    }
    return droppedTotal;
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::recording.store(on, std::memory_order_relaxed);
}

namespace {

void
copyBounded(char *to, std::size_t cap, const char *from)
{
    std::size_t i = 0;
    for (; from[i] && i + 1 < cap; ++i)
        to[i] = from[i];
    to[i] = '\0';
}

} // namespace

void
ScopedSpan::open(const char *category, const char *name)
{
    active_ = true;
    new (&event_) SpanEvent; // the union member starts uninitialized
    copyBounded(event_.category, sizeof(event_.category), category);
    copyBounded(event_.name, sizeof(event_.name), name);
    savedParent_ = detail::beginSpan();
    event_.id = detail::currentSpan();
    event_.parent = savedParent_;
    event_.startUs = detail::nowUs();
}

void
ScopedSpan::close()
{
    const std::uint64_t end = detail::nowUs();
    event_.durUs = end - event_.startUs;
    detail::endSpan(savedParent_);
    detail::emit(event_);
}

} // namespace telemetry
} // namespace axmemo
