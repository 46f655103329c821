/**
 * @file
 * Minimal fixed-size thread pool with blocking parallel loops and
 * optional hardware-topology awareness.
 *
 * Used by the vector-search substrate for index training and batched
 * search, and by the retrieval engine's batch executor. Falls back to
 * inline execution when constructed with zero or one worker, which keeps
 * single-core CI environments deterministic.
 *
 * Topology: ThreadPoolOptions sizes the pool to the machine
 * (numThreads 0 = hardwareConcurrency()) and can pin workers
 * round-robin across cores (Linux; elsewhere pinning is a no-op).
 * Pinning keeps each worker's per-thread state — search scratch,
 * stat shards, epoch slots — resident in one core's cache instead of
 * migrating with the scheduler, which matters once the read path is
 * contention-free and cache locality is the next ceiling.
 *
 * All parallel loops track completion with per-call state, so the pool
 * is safe to share between concurrent *external* callers (e.g. the
 * engine's dispatcher thread running a batch while a bench thread
 * profiles): a caller only waits for its own work, and the calling
 * thread participates in the loop so external loops make progress even
 * when every worker is busy. Nesting a blocking loop *inside* a pool
 * task is not supported — the inner wait parks a worker without
 * draining the queue and can deadlock.
 */

#ifndef VLR_COMMON_THREADPOOL_H
#define VLR_COMMON_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vlr
{

/** Pool shape: worker count and core-pinning policy. */
struct ThreadPoolOptions
{
    /** Workers; 0 = ThreadPool::hardwareConcurrency(). 1 runs tasks
     *  inline on the calling thread. */
    std::size_t numThreads = 0;
    /** Pin worker i to core (i % hardwareConcurrency()). Best-effort:
     *  unsupported platforms and failed syscalls are ignored. */
    bool pinThreads = false;
};

class ThreadPool
{
  public:
    /** @param num_threads 0 or 1 means run tasks inline. */
    explicit ThreadPool(std::size_t num_threads);

    /** Topology-aware construction: options.numThreads 0 sizes the
     *  pool to the hardware. Note the semantics differ from the
     *  count constructor, where 0 means inline execution. */
    explicit ThreadPool(ThreadPoolOptions options);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** std::thread::hardware_concurrency clamped to >= 1 (the
     *  standard allows 0 for "unknown"). */
    static std::size_t hardwareConcurrency();

    std::size_t numThreads() const { return threads_.size(); }

    /** True when workers were pinned at construction (and the
     *  platform supports affinity). */
    bool pinned() const { return pinned_; }

    /**
     * Run fn(i) for i in [0, n) split into contiguous chunks across the
     * pool; blocks until every index is processed.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Run fn(chunk_begin, chunk_end) over [0, n) in roughly equal chunks,
     * one per worker; blocks until done.
     */
    void parallelChunks(
        std::size_t n,
        const std::function<void(std::size_t, std::size_t)> &fn);

    /**
     * Run fn(i) for i in [0, n) with dynamic scheduling: workers steal
     * `grain`-sized index ranges from a shared cursor, so skewed
     * per-index costs (e.g. queries probing lists of very different
     * sizes) stay balanced. The caller steals ranges too, so at most
     * min(numThreads(), ranges - 1) workers are woken and a call of
     * one range (n <= grain) runs inline. Blocks until every index is
     * processed.
     */
    void parallelForDynamic(std::size_t n, std::size_t grain,
                            const std::function<void(std::size_t)> &fn);

    /**
     * Enqueue a fire-and-forget task. Runs inline when the pool has no
     * workers. The task must not outlive the pool.
     */
    void submitDetached(std::function<void()> task);

  private:
    /** Per-call completion latch for the blocking loops. */
    struct Sync
    {
        std::mutex m;
        std::condition_variable cv;
        std::size_t remaining = 0;

        void
        finishOne()
        {
            std::lock_guard<std::mutex> lk(m);
            if (--remaining == 0)
                cv.notify_all();
        }

        void
        wait()
        {
            std::unique_lock<std::mutex> lk(m);
            cv.wait(lk, [this] { return remaining == 0; });
        }
    };

    void workerLoop();
    void submit(std::function<void()> task);

    std::vector<std::thread> threads_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cvTask_;
    bool stop_ = false;
    bool pinned_ = false;
};

} // namespace vlr

#endif // VLR_COMMON_THREADPOOL_H
