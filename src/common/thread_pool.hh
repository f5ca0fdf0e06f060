/**
 * @file
 * Fixed-size worker pool for the sweep engine.
 *
 * The simulator is deterministic and shares no mutable state between
 * instances, so whole simulations are embarrassingly parallel. This pool
 * runs enqueued tasks on a fixed set of worker threads; parallelFor()
 * layers a deterministic ordered map on top: task i writes only slot i,
 * so results are in submission order regardless of completion order.
 *
 * A pool of size 1 executes every task inline on the submitting thread
 * (no worker threads at all), which makes AXMEMO_JOBS=1 byte-for-byte the
 * old serial behaviour including execution order.
 */

#ifndef AXMEMO_COMMON_THREAD_POOL_HH
#define AXMEMO_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace axmemo {

/** Fixed-size worker pool; see file comment. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 1 = inline serial execution. Values
     * above 1 spawn that many workers even on single-core hosts (useful
     * for determinism tests).
     */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Inline-executes immediately when size() == 1. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned size() const { return threads_; }

  private:
    void workerLoop();

    const unsigned threads_;
    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::size_t inFlight_ = 0; ///< queued + currently executing
    bool stopping_ = false;
};

/**
 * Run fn(0..n-1) across @p threads workers and return when all are done.
 * Results must be written into per-index slots by @p fn; with threads==1
 * indices execute in order on the calling thread.
 */
void parallelFor(unsigned threads, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace axmemo

#endif // AXMEMO_COMMON_THREAD_POOL_HH
