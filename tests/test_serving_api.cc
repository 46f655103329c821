/**
 * @file
 * Tests for the request-centric serving API: typed SearchRequest /
 * SearchResponse dispositions, deadline expiry in the admission queue,
 * mixed (k, nprobe) batch parity against serial TieredIndex search,
 * submitMany ordering, EngineBuilder validation, priority-led batch
 * formation, bounded-queue rejection under load, and exact
 * per-disposition accounting in EngineStatsSnapshot.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/access_profile.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/shard_backend.h"
#include "core/tiered_index.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/kmeans.h"

namespace vlr::core
{
namespace
{

/** Fixed-seed clustered corpus + a trained fast-scan index. */
struct ServingApiFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(77);
        std::vector<float> centers(ncenters_ * d_);
        for (auto &x : centers)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
        data_.resize(n_ * d_);
        for (std::size_t i = 0; i < n_; ++i) {
            const std::size_t c = rng.uniformU64(ncenters_);
            for (std::size_t j = 0; j < d_; ++j)
                data_[i * d_ + j] =
                    centers[c * d_ + j] +
                    static_cast<float>(rng.gaussian(0.0, 0.15));
        }
        vs::KMeansParams p;
        p.k = nlist_;
        const auto km = vs::kmeansTrain(data_, n_, d_, p);
        cq_ = std::make_shared<vs::FlatCoarseQuantizer>(km.centroids,
                                                        nlist_, d_);
        index_ = std::make_unique<vs::IvfPqFastScanIndex>(cq_, m_);
        index_->train(data_, n_);
        index_->add(data_, n_);

        queries_.resize(nq_ * d_);
        for (std::size_t i = 0; i < nq_; ++i) {
            const std::size_t c = rng.uniformU64(ncenters_);
            for (std::size_t j = 0; j < d_; ++j)
                queries_[i * d_ + j] =
                    centers[c * d_ + j] +
                    static_cast<float>(rng.gaussian(0.0, 0.2));
        }
    }

    /** Skewed synthetic access profile over the index's clusters. */
    AccessProfile
    makeProfile() const
    {
        std::vector<double> counts(nlist_), work(nlist_), bytes(nlist_);
        for (std::size_t c = 0; c < nlist_; ++c) {
            const auto id = static_cast<cluster_id_t>(c);
            counts[c] = static_cast<double>(nlist_ - c);
            work[c] = static_cast<double>(index_->listSize(id));
            bytes[c] = static_cast<double>(index_->listBytes(id));
        }
        return AccessProfile(std::move(counts), std::move(work),
                             std::move(bytes));
    }

    std::span<const float>
    query(std::size_t i) const
    {
        return {queries_.data() + i * d_, d_};
    }

    const std::size_t n_ = 3000;
    const std::size_t d_ = 16;
    const std::size_t m_ = 8;
    const std::size_t ncenters_ = 24;
    const std::size_t nlist_ = 32;
    const std::size_t nq_ = 48;
    std::vector<float> data_;
    std::vector<float> queries_;
    std::shared_ptr<vs::FlatCoarseQuantizer> cq_;
    std::unique_ptr<vs::IvfPqFastScanIndex> index_;
};

// --- Parity gate ------------------------------------------------------

TEST_F(ServingApiFixture, MixedBatchParityAcrossShardsAndCoverage)
{
    // Acceptance gate: a mixed batch of heterogeneous (k, nprobe)
    // requests must return bit-identical hits to per-request serial
    // TieredIndex search, at shard counts {1, 2} x rho {0, 0.25, 1}.
    // Both run one per-query function, so each response is also
    // checked against the index's own serial search, which a bug shared
    // by the two would not pass.
    const auto profile = makeProfile();
    const std::size_t ks[] = {5, 10, 17};
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
        for (const double rho : {0.0, 0.25, 1.0}) {
            TieredIndex tiered(*index_, profile, rho,
                               TieredOptions{shards, {}});
            const auto engine =
                EngineBuilder(tiered)
                    .searchThreads(4)
                    .batching({.maxBatch = 16, .timeoutSeconds = 1e-3})
                    .build();

            std::vector<SearchRequest> requests(nq_);
            for (std::size_t i = 0; i < nq_; ++i) {
                requests[i].query = query(i);
                requests[i].k = ks[i % 3];
                requests[i].nprobe = 1 + (i * 7) % 16;
                requests[i].tag = i;
            }
            auto futures = engine->submitMany(requests);
            engine->drain();

            for (std::size_t i = 0; i < nq_; ++i) {
                const auto r = futures[i].get();
                EXPECT_EQ(r.disposition, Disposition::kServed);
                EXPECT_EQ(r.tag, i);
                EXPECT_EQ(r.k, requests[i].k);
                EXPECT_EQ(r.nprobe, requests[i].nprobe);
                const float *q = queries_.data() + i * d_;
                const auto serial =
                    tiered.search(q, requests[i].k, requests[i].nprobe);
                const auto flat =
                    index_->search(q, requests[i].k, requests[i].nprobe);
                for (const auto *expected : {&serial, &flat}) {
                    ASSERT_EQ(r.hits.size(), expected->size())
                        << "shards " << shards << " rho " << rho
                        << " query " << i;
                    for (std::size_t j = 0; j < expected->size(); ++j) {
                        EXPECT_EQ(r.hits[j].id, (*expected)[j].id)
                            << "shards " << shards << " rho " << rho
                            << " query " << i << " rank " << j;
                        EXPECT_EQ(r.hits[j].dist, (*expected)[j].dist)
                            << "shards " << shards << " rho " << rho
                            << " query " << i << " rank " << j;
                    }
                }
            }
            const auto s = engine->stats();
            EXPECT_EQ(s.submitted, nq_);
            EXPECT_EQ(s.served, nq_);
            EXPECT_EQ(s.expired + s.rejected, 0u);
        }
    }
}

TEST_F(ServingApiFixture, BatchesNeverMixDifferentK)
{
    // Requests with different k must ride different batches (nprobe
    // may vary within one batch).
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(2)
                            .batching({.maxBatch = 64,
                                       .timeoutSeconds = 20e-3})
                            .build();
    std::vector<SearchRequest> requests(nq_);
    for (std::size_t i = 0; i < nq_; ++i) {
        requests[i].query = query(i);
        requests[i].k = i % 2 == 0 ? 4 : 9;
        requests[i].nprobe = 1 + i % 8;
    }
    auto futures = engine->submitMany(requests);
    engine->drain();
    for (std::size_t i = 0; i < nq_; ++i) {
        const auto r = futures[i].get();
        EXPECT_EQ(r.k, requests[i].k);
        // A batch holding every request of both k groups would exceed
        // the per-k population; batchSize is bounded by it.
        EXPECT_LE(r.batchSize, nq_ / 2);
        EXPECT_LE(r.hits.size(), requests[i].k);
    }
}

// --- Deadlines --------------------------------------------------------

TEST_F(ServingApiFixture, DeadlineExpiresInQueue)
{
    // Long batch timeout + a cap that never fills: queued requests
    // with short deadlines must expire without entering a batch while
    // deadline-free requests are served on drain.
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(2)
                            .batching({.maxBatch = 64,
                                       .timeoutSeconds = 200e-3})
                            .build();

    std::vector<std::future<SearchResponse>> doomed;
    for (std::size_t i = 0; i < 3; ++i) {
        SearchRequest request;
        request.query = query(i);
        request.deadlineSeconds = 3e-3;
        request.tag = 100 + i;
        doomed.push_back(engine->submit(request));
    }
    std::vector<std::future<SearchResponse>> safe;
    for (std::size_t i = 3; i < 6; ++i)
        safe.push_back(engine->submit({.query = query(i)}));

    for (auto &f : doomed) {
        const auto r = f.get(); // resolves at expiry, not the batch
        EXPECT_EQ(r.disposition, Disposition::kExpiredInQueue);
        EXPECT_TRUE(r.hits.empty());
        EXPECT_EQ(r.batchSize, 0u);
        EXPECT_EQ(r.searchSeconds, 0.0);
        EXPECT_GE(r.queueSeconds, 3e-3);
        EXPECT_GE(r.tag, 100u);
    }
    engine->drain();
    for (auto &f : safe) {
        const auto r = f.get();
        EXPECT_EQ(r.disposition, Disposition::kServed);
        EXPECT_FALSE(r.hits.empty());
    }

    const auto s = engine->stats();
    EXPECT_EQ(s.submitted, 6u);
    EXPECT_EQ(s.expired, 3u);
    EXPECT_EQ(s.served, 3u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.completed, 6u);
    EXPECT_EQ(s.expiredLatency.count, 3u);
}

TEST_F(ServingApiFixture, GenerousDeadlineIsServed)
{
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(2)
                            .batching({.maxBatch = 4,
                                       .timeoutSeconds = 1e-3})
                            .build();
    SearchRequest request;
    request.query = query(0);
    request.deadlineSeconds = 10.0;
    const auto r = engine->submit(request).get();
    EXPECT_EQ(r.disposition, Disposition::kServed);
    EXPECT_FALSE(r.hits.empty());
}

// --- submitMany ordering ---------------------------------------------

TEST_F(ServingApiFixture, SubmitManyPreservesRequestOrder)
{
    // Futures must match requests index-for-index even though the
    // dispatcher regroups by k and priority.
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(4)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 1e-3})
                            .build();
    std::vector<SearchRequest> requests(nq_);
    for (std::size_t i = 0; i < nq_; ++i) {
        requests[i].query = query(i);
        requests[i].k = 3 + i % 5;
        requests[i].nprobe = 1 + i % 11;
        requests[i].priority = static_cast<int>(i % 3);
        requests[i].tag = 1000 + i;
    }
    auto futures = engine->submitMany(requests);
    ASSERT_EQ(futures.size(), requests.size());
    engine->drain();
    for (std::size_t i = 0; i < nq_; ++i) {
        const auto r = futures[i].get();
        EXPECT_EQ(r.tag, 1000 + i) << "future " << i;
        EXPECT_EQ(r.k, requests[i].k) << "future " << i;
        EXPECT_EQ(r.nprobe, requests[i].nprobe) << "future " << i;
        const auto serial = index_->search(queries_.data() + i * d_,
                                           requests[i].k,
                                           requests[i].nprobe);
        ASSERT_EQ(r.hits.size(), serial.size()) << "future " << i;
        for (std::size_t j = 0; j < serial.size(); ++j)
            EXPECT_EQ(r.hits[j].id, serial[j].id)
                << "future " << i << " rank " << j;
    }
}

// --- Priority ---------------------------------------------------------

TEST_F(ServingApiFixture, HigherPriorityLeadsBatchFormation)
{
    // Slow hot tier keeps the dispatcher busy long enough for all
    // submissions to queue; the high-priority pair must then complete
    // before the low-priority pair.
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 1.0,
                       TieredOptions{1, throttledShardFactory(50e-3)});
    const auto engine = EngineBuilder(tiered)
                            .searchThreads(2)
                            .batching({.maxBatch = 2,
                                       .timeoutSeconds = 1e-3})
                            .build();

    std::mutex order_mutex;
    std::vector<std::uint64_t> completion_order;
    const auto record = [&](SearchResponse r) {
        std::lock_guard<std::mutex> lk(order_mutex);
        completion_order.push_back(r.tag);
    };

    // Warm request occupies the dispatcher in executeBatch (50ms
    // throttle) while the prioritized requests queue up behind it.
    SearchRequest warm;
    warm.query = query(0);
    warm.tag = 0;
    engine->submitAsync(warm, record);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (std::size_t i = 0; i < 2; ++i) {
        SearchRequest low;
        low.query = query(1 + i);
        low.priority = 0;
        low.tag = 10 + i;
        engine->submitAsync(low, record);
    }
    for (std::size_t i = 0; i < 2; ++i) {
        SearchRequest high;
        high.query = query(3 + i);
        high.priority = 5;
        high.tag = 20 + i;
        engine->submitAsync(high, record);
    }
    engine->drain();

    ASSERT_EQ(completion_order.size(), 5u);
    std::size_t high_max = 0, low_min = completion_order.size();
    for (std::size_t i = 0; i < completion_order.size(); ++i) {
        if (completion_order[i] >= 20)
            high_max = std::max(high_max, i);
        else if (completion_order[i] >= 10)
            low_min = std::min(low_min, i);
    }
    EXPECT_LT(high_max, low_min)
        << "high-priority requests must complete before low-priority";
}

// --- Bounded admission ------------------------------------------------

TEST_F(ServingApiFixture, BoundedQueueRejectsOnOverflow)
{
    // One-query batches on a 5ms-throttled shard keep the dispatcher
    // saturated; flooding 40 submissions through a 4-deep queue must
    // reject most of them immediately.
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 1.0,
                       TieredOptions{1, throttledShardFactory(5e-3)});
    const auto engine = EngineBuilder(tiered)
                            .searchThreads(2)
                            .batching({.maxBatch = 1,
                                       .timeoutSeconds = 0.0})
                            .admissionQueueBound(4)
                            .build();

    const std::size_t flood = 40;
    std::vector<std::future<SearchResponse>> futures;
    futures.reserve(flood);
    for (std::size_t i = 0; i < flood; ++i)
        futures.push_back(engine->submit({.query = query(i % nq_)}));
    engine->drain();

    std::size_t served = 0, rejected = 0;
    for (auto &f : futures) {
        const auto r = f.get();
        if (r.disposition == Disposition::kServed) {
            ++served;
            EXPECT_FALSE(r.hits.empty());
        } else {
            EXPECT_EQ(r.disposition, Disposition::kRejected);
            EXPECT_TRUE(r.hits.empty());
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(served, 0u);
    EXPECT_EQ(served + rejected, flood);

    const auto s = engine->stats();
    EXPECT_EQ(s.submitted, flood);
    EXPECT_EQ(s.served, served);
    EXPECT_EQ(s.rejected, rejected);
    EXPECT_EQ(s.expired, 0u);
    EXPECT_EQ(s.served + s.expired + s.rejected, s.submitted);
}

// --- submitAsync ------------------------------------------------------

TEST_F(ServingApiFixture, SubmitAsyncInvokesCallbackOnce)
{
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(2)
                            .batching({.maxBatch = 4,
                                       .timeoutSeconds = 1e-3})
                            .build();
    std::promise<SearchResponse> delivered;
    std::atomic<int> calls{0};
    SearchRequest request;
    request.query = query(0);
    request.k = 7;
    request.tag = 42;
    engine->submitAsync(request, [&](SearchResponse r) {
        ++calls;
        delivered.set_value(std::move(r));
    });
    const auto r = delivered.get_future().get();
    engine->drain();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(r.disposition, Disposition::kServed);
    EXPECT_EQ(r.tag, 42u);
    EXPECT_EQ(r.k, 7u);
    EXPECT_EQ(r.hits.size(), 7u);
}

// --- Builder validation ----------------------------------------------

TEST_F(ServingApiFixture, BuilderRejectsInvalidConfig)
{
    EXPECT_THROW(EngineBuilder(*index_).defaultK(0).build(),
                 std::invalid_argument);
    EXPECT_THROW(EngineBuilder(*index_).defaultNprobe(0).build(),
                 std::invalid_argument);
    // searchThreads(0) is no longer an error: it sizes the pool to the
    // hardware.
    EXPECT_NO_THROW(EngineBuilder(*index_).searchThreads(0).build());
    EXPECT_THROW(EngineBuilder(*index_).sloSearchSeconds(0.0).build(),
                 std::invalid_argument);
    EXPECT_THROW(EngineBuilder(*index_)
                     .batching({.maxBatch = 0, .timeoutSeconds = 1e-3})
                     .build(),
                 std::invalid_argument);
    EXPECT_THROW(EngineBuilder(*index_)
                     .batching({.maxBatch = 8, .timeoutSeconds = -1.0})
                     .build(),
                 std::invalid_argument);
}

TEST_F(ServingApiFixture, BuilderRejectsInconsistentComposition)
{
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 0.25);

    // rho outside [0, 1].
    EXPECT_THROW(
        EngineBuilder(*index_).tieredFromProfile(profile, 1.5).build(),
        std::invalid_argument);
    // Shard options without a profile-built tier.
    EXPECT_THROW(EngineBuilder(*index_).hotShards(2).build(),
                 std::invalid_argument);
    EXPECT_THROW(EngineBuilder(tiered).hotShards(2).build(),
                 std::invalid_argument);
    // tieredFromProfile on a builder already serving a tiered index.
    EXPECT_THROW(EngineBuilder(tiered)
                     .tieredFromProfile(profile, 0.25)
                     .build(),
                 std::invalid_argument);
    // A profile over another cluster count than the served index.
    const AccessProfile other(std::vector<double>(nlist_ / 2, 1.0),
                              std::vector<double>(nlist_ / 2, 1.0),
                              std::vector<double>(nlist_ / 2, 1.0));
    EXPECT_THROW(
        EngineBuilder(*index_).tieredFromProfile(other, 0.25).build(),
        std::invalid_argument);
}

TEST_F(ServingApiFixture, BuilderComposesProfileBuiltTier)
{
    const auto profile = makeProfile();
    const auto engine = EngineBuilder(*index_)
                            .tieredFromProfile(profile, 0.25)
                            .hotShards(2)
                            .shardBackend(fastScanShardFactory())
                            .searchThreads(2)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 1e-3})
                            .build();
    ASSERT_NE(engine->tiered(), nullptr);
    EXPECT_EQ(engine->tiered()->numShards(), 2u);
    EXPECT_NEAR(engine->tiered()->rho(), 0.25, 0.05);

    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t i = 0; i < 8; ++i)
        futures.push_back(engine->submit({.query = query(i)}));
    engine->drain();
    for (auto &f : futures)
        EXPECT_EQ(f.get().disposition, Disposition::kServed);
}

TEST_F(ServingApiFixture, SubmitRejectsShortQuerySpan)
{
    const auto engine = EngineBuilder(*index_).build();
    SearchRequest request;
    request.query = std::span<const float>(queries_.data(), d_ - 1);
    EXPECT_THROW(engine->submit(request), std::invalid_argument);
}

} // namespace
} // namespace vlr::core
