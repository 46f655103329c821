/**
 * @file
 * Tests for epoch-based reclamation (core/epoch.h): per-thread slot
 * registry, guard nesting, deferred reclamation ordering, and a
 * publish/retire stress proving a snapshot is never freed while a
 * reader holds it.
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/epoch.h"

namespace vlr::core
{
namespace
{

// --- PerThread -------------------------------------------------------

TEST(PerThread, LocalIsStablePerThreadAndDistinctAcrossThreads)
{
    PerThread<int> slots;
    int *mine = &slots.local();
    EXPECT_EQ(mine, &slots.local());
    *mine = 41;

    int *theirs = nullptr;
    std::thread t([&] {
        theirs = &slots.local();
        *theirs = 42;
    });
    t.join();

    EXPECT_NE(mine, theirs);
    EXPECT_EQ(slots.size(), 2u);
    int sum = 0;
    slots.forEach([&sum](const int &v) { sum += v; });
    EXPECT_EQ(sum, 41 + 42);
}

TEST(PerThread, FactoryInitializesEverySlot)
{
    PerThread<int> slots([] { return std::make_unique<int>(7); });
    EXPECT_EQ(slots.local(), 7);
    std::thread t([&] { EXPECT_EQ(slots.local(), 7); });
    t.join();
    EXPECT_EQ(slots.size(), 2u);
}

TEST(PerThread, InstanceIdsAreNeverReusedAcrossDestruction)
{
    // A destroyed instance leaves a stale entry in the thread-local
    // cache; a new instance must get its own slot, not the stale one.
    auto first = std::make_unique<PerThread<int>>();
    first->local() = 1;
    first.reset();
    PerThread<int> second;
    second.local() = 2;
    EXPECT_EQ(second.size(), 1u);
    second.forEach([](const int &v) { EXPECT_EQ(v, 2); });
}

// --- EpochManager ----------------------------------------------------

struct Canary
{
    explicit Canary(std::atomic<int> &frees) : frees_(frees) {}
    ~Canary()
    {
        magic = 0xdead;
        frees_.fetch_add(1, std::memory_order_relaxed);
    }
    std::uint32_t magic = 0xfeed;
    std::atomic<int> &frees_;
};

TEST(EpochManager, RetireWithoutReadersFreesImmediately)
{
    std::atomic<int> frees{0};
    EpochManager mgr;
    mgr.retire(new Canary(frees));
    EXPECT_EQ(frees.load(), 1);
    EXPECT_EQ(mgr.limboSize(), 0u);
}

TEST(EpochManager, ActiveGuardDefersReclamation)
{
    std::atomic<int> frees{0};
    EpochManager mgr;
    Canary *c = new Canary(frees);
    {
        EpochGuard g(mgr);
        // Retire on another thread: the reader here pinned the epoch
        // before the retirement, so the object must stay alive.
        std::thread writer([&] { mgr.retire(c); });
        writer.join();
        EXPECT_EQ(frees.load(), 0);
        EXPECT_EQ(mgr.limboSize(), 1u);
        EXPECT_EQ(c->magic, 0xfeedu);
    }
    EXPECT_EQ(mgr.tryReclaim(), 1u);
    EXPECT_EQ(frees.load(), 1);
    EXPECT_EQ(mgr.limboSize(), 0u);
}

TEST(EpochManager, NestedGuardsHoldUntilOutermostExit)
{
    std::atomic<int> frees{0};
    EpochManager mgr;
    Canary *c = new Canary(frees);
    {
        EpochGuard outer(mgr);
        {
            EpochGuard inner(mgr);
            std::thread writer([&] { mgr.retire(c); });
            writer.join();
        }
        // The inner guard exited, but the outer pin still protects the
        // epoch announced at the outermost enter.
        mgr.tryReclaim();
        EXPECT_EQ(frees.load(), 0);
        EXPECT_EQ(c->magic, 0xfeedu);
    }
    EXPECT_EQ(mgr.tryReclaim(), 1u);
    EXPECT_EQ(frees.load(), 1);
}

TEST(EpochManager, LateReaderDoesNotPinEarlierRetirement)
{
    // An object retired at epoch R is freed even while a reader is
    // active, provided that reader entered after the retirement.
    std::atomic<int> frees{0};
    EpochManager mgr;
    std::thread writer([&] { mgr.retire(new Canary(frees)); });
    writer.join();
    EpochGuard late(mgr);
    EXPECT_EQ(mgr.limboSize(), 0u);
    EXPECT_EQ(frees.load(), 1);
}

TEST(EpochManager, ReclamationRespectsRetirementOrder)
{
    // Retire A and B under one pin: both wait; releasing the pin frees
    // both in one reclaim pass.
    std::atomic<int> frees{0};
    EpochManager mgr;
    Canary *a = new Canary(frees);
    Canary *b = new Canary(frees);
    {
        EpochGuard g(mgr);
        std::thread writer([&] {
            mgr.retire(a);
            mgr.retire(b);
        });
        writer.join();
        EXPECT_EQ(mgr.limboSize(), 2u);
        EXPECT_EQ(frees.load(), 0);
    }
    EXPECT_EQ(mgr.tryReclaim(), 2u);
    EXPECT_EQ(frees.load(), 2);
}

TEST(EpochManager, DestructorDrainsLimbo)
{
    std::atomic<int> frees{0};
    {
        EpochManager mgr;
        // Park objects in limbo (retire under a pin, then release the
        // pin without a manual reclaim) so destruction finds them.
        EpochGuard *g = new EpochGuard(mgr);
        std::thread writer([&] {
            mgr.retire(new Canary(frees));
            mgr.retire(new Canary(frees));
        });
        writer.join();
        EXPECT_EQ(mgr.limboSize(), 2u);
        delete g; // no tryReclaim() afterwards
        EXPECT_EQ(frees.load(), 0);
    }
    EXPECT_EQ(frees.load(), 2);
}

TEST(EpochManager, SnapshotNeverFreedWhileReaderHoldsIt)
{
    // Publish/retire churn against hammering readers: each reader pins
    // an epoch, loads the current snapshot, and checks its magic many
    // times inside the guard. The deleter poisons the magic, so any
    // premature reclamation shows up as a torn read. Run with
    // ASan/UBSan or TSan for the full effect.
    std::atomic<int> frees{0};
    std::atomic<bool> stop{false};
    EpochManager mgr;
    std::atomic<Canary *> current{new Canary(frees)};

    constexpr int kReaders = 4;
    std::atomic<long> reads{0};
    std::atomic<int> started{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t)
        readers.emplace_back([&] {
            bool first = true;
            while (!stop.load(std::memory_order_acquire)) {
                EpochGuard g(mgr);
                const Canary *c =
                    current.load(std::memory_order_acquire);
                for (int i = 0; i < 64; ++i)
                    ASSERT_EQ(c->magic, 0xfeedu);
                reads.fetch_add(1, std::memory_order_relaxed);
                if (std::exchange(first, false))
                    started.fetch_add(1, std::memory_order_release);
            }
        });

    constexpr int kSwaps = 2000;
    std::thread writer([&] {
        // Swap only once every reader has finished a guarded read, so
        // the swaps overlap reads however the threads are scheduled.
        while (started.load(std::memory_order_acquire) < kReaders)
            std::this_thread::yield();
        for (int i = 0; i < kSwaps; ++i) {
            Canary *next = new Canary(frees);
            Canary *old =
                current.exchange(next, std::memory_order_acq_rel);
            mgr.retire(old);
        }
    });
    writer.join();
    stop.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();

    mgr.tryReclaim();
    EXPECT_EQ(mgr.limboSize(), 0u);
    EXPECT_EQ(frees.load(), kSwaps);
    EXPECT_GT(reads.load(), 0);
    delete current.load();
}

} // namespace
} // namespace vlr::core
