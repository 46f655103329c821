#include "common/threadpool.h"

#include <algorithm>
#include <memory>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace vlr
{

namespace
{

/** Best-effort pin of @p t to @p core; returns success. */
bool
pinThreadToCore(std::thread &t, std::size_t core)
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(core % CPU_SETSIZE, &set);
    return pthread_setaffinity_np(t.native_handle(), sizeof(set),
                                  &set) == 0;
#else
    (void)t;
    (void)core;
    return false;
#endif
}

} // namespace

std::size_t
ThreadPool::hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads <= 1)
        return;
    threads_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::ThreadPool(ThreadPoolOptions options)
    : ThreadPool(options.numThreads == 0 ? hardwareConcurrency()
                                         : options.numThreads)
{
    if (!options.pinThreads || threads_.empty())
        return;
    // Round-robin workers across cores. Every pin must take for the
    // pool to report pinned() — a half-pinned pool would skew any
    // scaling measurement built on it.
    const std::size_t cores = hardwareConcurrency();
    bool all = true;
    for (std::size_t i = 0; i < threads_.size(); ++i)
        all = pinThreadToCore(threads_[i], i % cores) && all;
    pinned_ = all;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    cvTask_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mutex_);
            cvTask_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        tasks_.push(std::move(task));
    }
    cvTask_.notify_one();
}

void
ThreadPool::submitDetached(std::function<void()> task)
{
    if (threads_.empty()) {
        task();
        return;
    }
    submit(std::move(task));
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    parallelChunks(n, [&fn](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            fn(i);
    });
}

void
ThreadPool::parallelChunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (n == 0)
        return;
    const std::size_t workers = threads_.empty() ? 1 : threads_.size();
    if (workers == 1) {
        fn(0, n);
        return;
    }
    const std::size_t chunk = (n + workers - 1) / workers;
    // The caller runs the first chunk itself while the pool works on the
    // rest; its Sync latch only counts this call's tasks, so concurrent
    // loops on the same pool don't wait on each other.
    const auto sync = std::make_shared<Sync>();
    {
        std::lock_guard<std::mutex> lk(sync->m);
        for (std::size_t b = chunk; b < n; b += chunk)
            ++sync->remaining;
    }
    for (std::size_t b = chunk; b < n; b += chunk) {
        const std::size_t e = std::min(n, b + chunk);
        submit([sync, &fn, b, e] {
            fn(b, e);
            sync->finishOne();
        });
    }
    fn(0, std::min(n, chunk));
    sync->wait();
}

void
ThreadPool::parallelForDynamic(std::size_t n, std::size_t grain,
                               const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    grain = std::max<std::size_t>(grain, 1);
    if (threads_.empty()) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    struct DynState
    {
        std::atomic<std::size_t> next{0};
        Sync sync;
    };
    const auto state = std::make_shared<DynState>();
    const auto work = [state, &fn, n, grain] {
        for (;;) {
            const std::size_t b = state->next.fetch_add(grain);
            if (b >= n)
                return;
            const std::size_t e = std::min(n, b + grain);
            for (std::size_t i = b; i < e; ++i)
                fn(i);
        }
    };

    // The caller works a chunk too, so a one-chunk call wakes no one.
    const std::size_t chunks = (n + grain - 1) / grain;
    const std::size_t helpers = std::min(threads_.size(), chunks - 1);
    {
        std::lock_guard<std::mutex> lk(state->sync.m);
        state->sync.remaining = helpers;
    }
    for (std::size_t h = 0; h < helpers; ++h)
        submit([state, work] {
            work();
            state->sync.finishOne();
        });
    work();
    state->sync.wait();
}

} // namespace vlr
