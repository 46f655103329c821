/**
 * @file
 * Tests for the thread pool used by index training and batched search.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.h"

namespace vlr
{
namespace
{

TEST(ThreadPool, ZeroThreadsRunsInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 0u);
    std::vector<int> hits(10, 0);
    pool.parallelFor(10, [&](std::size_t i) { hits[i]++; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EachIndexVisitedExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyRangeIsNoOp)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, SumReductionViaAtomics)
{
    ThreadPool pool(3);
    std::atomic<long> sum{0};
    pool.parallelFor(1000, [&](std::size_t i) {
        sum += static_cast<long>(i);
    });
    EXPECT_EQ(sum.load(), 1000L * 999L / 2L);
}

TEST(ThreadPool, ChunksPartitionRange)
{
    ThreadPool pool(4);
    const std::size_t n = 1003;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelChunks(n, [&](std::size_t lo, std::size_t hi) {
        EXPECT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i)
            hits[i]++;
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ChunksWithFewerItemsThanThreads)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelChunks(3, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            hits[i]++;
    });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 20; ++round)
        pool.parallelFor(50, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 20 * 50);
}

TEST(ThreadPool, SingleThreadPoolIsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 0u);
    std::atomic<int> count{0};
    pool.parallelFor(5, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, DynamicForVisitsEachIndexOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelForDynamic(n, 7, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, DynamicForInlineWhenNoWorkers)
{
    ThreadPool pool(0);
    std::vector<int> hits(100, 0);
    pool.parallelForDynamic(100, 16, [&](std::size_t i) { hits[i]++; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, DynamicForBalancesSkewedWork)
{
    // Index 0 is ~1000x heavier than the rest; dynamic scheduling with
    // grain 1 must still visit everything exactly once.
    ThreadPool pool(4);
    const std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<long> sink{0};
    pool.parallelForDynamic(n, 1, [&](std::size_t i) {
        const long spins = i == 0 ? 200000 : 200;
        long acc = 0;
        for (long s = 0; s < spins; ++s)
            acc += s;
        sink += acc;
        hits[i]++;
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, DynamicForOfOneRangeNeedsNoWorker)
{
    // The caller takes a range itself, so a call of one range must not
    // wait for a worker: it returns even while every worker is parked.
    ThreadPool pool(2);
    std::promise<void> release;
    const std::shared_future<void> latch = release.get_future().share();
    std::atomic<std::size_t> parked{0};
    for (std::size_t t = 0; t < pool.numThreads(); ++t)
        pool.submitDetached([&parked, latch] {
            ++parked;
            latch.wait();
        });
    while (parked.load() < pool.numThreads())
        std::this_thread::yield();

    std::vector<int> hits(5, 0);
    auto calls = std::async(std::launch::async, [&] {
        pool.parallelForDynamic(1, 1, [&](std::size_t i) { hits[i]++; });
        pool.parallelForDynamic(5, 8, [&](std::size_t i) { hits[i]++; });
    });
    const bool returned = calls.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    release.set_value();
    calls.get();
    EXPECT_TRUE(returned) << "a one-range call waited for a parked worker";
    EXPECT_EQ(hits, (std::vector<int>{2, 1, 1, 1, 1}));
}

TEST(ThreadPool, DynamicForZeroGrainIsClampedToOne)
{
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(17);
    pool.parallelForDynamic(17, 0, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < 17; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SubmitDetachedRunsTask)
{
    std::promise<int> done;
    auto fut = done.get_future();
    {
        ThreadPool pool(2);
        pool.submitDetached([&] { done.set_value(41 + 1); });
        EXPECT_EQ(fut.get(), 42);
    }
}

TEST(ThreadPool, SubmitDetachedInlineWhenNoWorkers)
{
    ThreadPool pool(0);
    int x = 0;
    pool.submitDetached([&] { x = 7; });
    EXPECT_EQ(x, 7);
}

TEST(ThreadPool, HardwareConcurrencyIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(ThreadPool, OptionsZeroThreadsSizesToHardware)
{
    ThreadPool pool(ThreadPoolOptions{});
    const std::size_t hw = ThreadPool::hardwareConcurrency();
    // numThreads == 0 resolves to the hardware; a pool of <= 1 worker
    // runs inline and reports zero threads.
    EXPECT_EQ(pool.numThreads(), hw <= 1 ? 0u : hw);
}

TEST(ThreadPool, OptionsExplicitCountOverridesHardware)
{
    ThreadPool pool(ThreadPoolOptions{.numThreads = 3});
    EXPECT_EQ(pool.numThreads(), 3u);
    std::atomic<int> count{0};
    pool.parallelFor(100, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PinnedPoolStillRunsWork)
{
    // Pinning is best effort (Linux only, may fail under restricted
    // affinity masks); correctness of the work must not depend on it.
    ThreadPool pool(
        ThreadPoolOptions{.numThreads = 2, .pinThreads = true});
    std::atomic<int> count{0};
    pool.parallelFor(64, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 64);
#if !defined(__linux__)
    EXPECT_FALSE(pool.pinned());
#endif
}

TEST(ThreadPool, InlinePoolNeverReportsPinned)
{
    ThreadPool pool(
        ThreadPoolOptions{.numThreads = 1, .pinThreads = true});
    EXPECT_EQ(pool.numThreads(), 0u);
    EXPECT_FALSE(pool.pinned());
}

TEST(ThreadPool, ConcurrentLoopsFromMultipleCallers)
{
    // Two external threads drive independent loops through one shared
    // pool; per-call completion tracking must keep them isolated.
    ThreadPool pool(4);
    std::atomic<long> sum_a{0}, sum_b{0};
    std::thread ta([&] {
        for (int round = 0; round < 10; ++round)
            pool.parallelForDynamic(500, 8, [&](std::size_t i) {
                sum_a += static_cast<long>(i);
            });
    });
    std::thread tb([&] {
        for (int round = 0; round < 10; ++round)
            pool.parallelFor(500, [&](std::size_t i) {
                sum_b += static_cast<long>(i);
            });
    });
    ta.join();
    tb.join();
    EXPECT_EQ(sum_a.load(), 10L * 500L * 499L / 2L);
    EXPECT_EQ(sum_b.load(), 10L * 500L * 499L / 2L);
}

} // namespace
} // namespace vlr
