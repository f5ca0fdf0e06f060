#include "common/thread_pool.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace axmemo {

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads == 0 ? 1 : threads)
{
    if (threads_ == 1)
        return; // inline mode: no workers
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i) {
        workers_.emplace_back([this, i] {
            obs::setThreadLabel(i);
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (threads_ == 1) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push(std::move(task));
        ++inFlight_;
    }
    wake_.notify_one();
}

void
ThreadPool::wait()
{
    if (threads_ == 1)
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--inFlight_ == 0)
                idle_.notify_all();
        }
    }
}

void
parallelFor(unsigned threads, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(std::min<std::size_t>(threads, n));
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace axmemo
