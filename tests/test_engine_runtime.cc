/**
 * @file
 * Tests for the concurrent retrieval engine: served hits must exactly
 * match single-threaded serial search on a deterministic synthetic
 * dataset, whether the engine serves a bare index (through its
 * engine-owned empty tier) or a caller-owned tier, and the admission
 * queue must honor its batching, drain and shutdown semantics. Engines
 * are built through the EngineBuilder (the only construction path);
 * request-level behaviour (deadlines, priorities, mixed batches,
 * rejection) is covered in test_serving_api.cc.
 */

#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/tiered_index.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/kmeans.h"

namespace vlr::core
{
namespace
{

/** Fixed-seed clustered corpus + a trained fast-scan index. */
struct EngineFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(42);
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

    std::vector<std::vector<vs::SearchHit>>
    serialResults(std::size_t k, std::size_t nprobe) const
    {
        std::vector<std::vector<vs::SearchHit>> out(nq_);
        for (std::size_t i = 0; i < nq_; ++i)
            out[i] = index_->search(queries_.data() + i * d_, k, nprobe);
        return out;
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
    const std::size_t nq_ = 64;
    std::vector<float> data_;
    std::vector<float> queries_;
    std::shared_ptr<vs::FlatCoarseQuantizer> cq_;
    std::unique_ptr<vs::IvfPqFastScanIndex> index_;
};

TEST_F(EngineFixture, EngineResultsMatchSerialSearch)
{
    const std::size_t k = 10, nprobe = 8;
    const auto serial = serialResults(k, nprobe);

    const auto engine = EngineBuilder(*index_)
                            .defaultK(k)
                            .defaultNprobe(nprobe)
                            .searchThreads(4)
                            .batching({.maxBatch = 16,
                                       .timeoutSeconds = 1e-3})
                            .build();
    // A bare index is served through an engine-owned empty tier.
    ASSERT_NE(engine->tiered(), nullptr);
    EXPECT_EQ(engine->tiered()->numHotClusters(), 0u);
    EXPECT_EQ(&engine->tiered()->source(), index_.get());

    std::vector<std::future<SearchResponse>> futures;
    futures.reserve(nq_);
    for (std::size_t i = 0; i < nq_; ++i)
        futures.push_back(engine->submit({.query = query(i)}));

    for (std::size_t i = 0; i < nq_; ++i) {
        const auto r = futures[i].get();
        EXPECT_EQ(r.disposition, Disposition::kServed);
        ASSERT_EQ(r.hits.size(), serial[i].size()) << "query " << i;
        for (std::size_t j = 0; j < serial[i].size(); ++j) {
            EXPECT_EQ(r.hits[j].id, serial[i][j].id)
                << "query " << i << " rank " << j;
            EXPECT_EQ(r.hits[j].dist, serial[i][j].dist)
                << "query " << i << " rank " << j;
        }
        EXPECT_EQ(r.k, k);
        EXPECT_EQ(r.nprobe, nprobe);
        EXPECT_GE(r.totalSeconds, 0.0);
        EXPECT_GE(r.totalSeconds, r.searchSeconds);
        EXPECT_LE(r.batchSize, 16u);
        EXPECT_GE(r.batchSize, 1u);
    }
    // Every served query went cold-only through the empty tier.
    const auto ts = engine->tiered()->stats();
    EXPECT_EQ(ts.queries, nq_);
    EXPECT_EQ(ts.coldOnlyQueries, nq_);
}

TEST_F(EngineFixture, BatchCapIsRespected)
{
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(2)
                            .batching({.maxBatch = 4,
                                       .timeoutSeconds = 50e-3})
                            .build();

    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t i = 0; i < nq_; ++i)
        futures.push_back(engine->submit({.query = query(i)}));
    for (auto &f : futures)
        EXPECT_LE(f.get().batchSize, 4u);
}

TEST_F(EngineFixture, TimeoutDispatchesPartialBatch)
{
    // Cap never fills with 3 queries; the timeout must force dispatch.
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(2)
                            .batching({.maxBatch = 64,
                                       .timeoutSeconds = 2e-3})
                            .build();

    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t i = 0; i < 3; ++i)
        futures.push_back(engine->submit({.query = query(i)}));
    for (auto &f : futures) {
        const auto r = f.get(); // resolves without the cap ever filling
        EXPECT_LE(r.batchSize, 3u);
    }
}

TEST_F(EngineFixture, DrainCompletesEverythingAdmitted)
{
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(4)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 100e-3})
                            .build();

    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t i = 0; i < nq_; ++i)
        futures.push_back(engine->submit({.query = query(i)}));
    engine->drain();

    EXPECT_EQ(engine->pendingQueries(), 0u);
    const auto s = engine->stats();
    EXPECT_EQ(s.submitted, nq_);
    EXPECT_EQ(s.served, nq_);
    EXPECT_EQ(s.completed, nq_);
    for (auto &f : futures)
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    EXPECT_TRUE(engine->accepting());
}

TEST_F(EngineFixture, ShutdownDrainsAndRejectsNewQueries)
{
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(2)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 100e-3})
                            .build();

    std::vector<std::future<SearchResponse>> futures;
    for (std::size_t i = 0; i < 10; ++i)
        futures.push_back(engine->submit({.query = query(i)}));
    engine->shutdown();

    EXPECT_FALSE(engine->accepting());
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().hits.size(), 10u);
    }
    EXPECT_THROW(engine->submit({.query = query(0)}), std::runtime_error);
    engine->shutdown(); // idempotent
}

TEST_F(EngineFixture, TieredEngineMatchesSerialSearch)
{
    const std::size_t k = 10, nprobe = 8;
    const auto serial = serialResults(k, nprobe);

    // Hot tier = half the clusters by descending size.
    std::vector<cluster_id_t> order(nlist_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](cluster_id_t a, cluster_id_t b) {
                  const auto sa = index_->listSize(a);
                  const auto sb = index_->listSize(b);
                  if (sa != sb)
                      return sa > sb;
                  return a < b;
              });
    order.resize(nlist_ / 2);
    TieredIndex tiered(*index_, order);

    const auto engine = EngineBuilder(tiered)
                            .defaultK(k)
                            .defaultNprobe(nprobe)
                            .searchThreads(4)
                            .batching({.maxBatch = 16,
                                       .timeoutSeconds = 1e-3})
                            .build();
    ASSERT_EQ(engine->tiered(), &tiered);

    std::vector<std::future<SearchResponse>> futures;
    futures.reserve(nq_);
    for (std::size_t i = 0; i < nq_; ++i)
        futures.push_back(engine->submit({.query = query(i)}));
    for (std::size_t i = 0; i < nq_; ++i) {
        const auto r = futures[i].get();
        ASSERT_EQ(r.hits.size(), serial[i].size()) << "query " << i;
        for (std::size_t j = 0; j < serial[i].size(); ++j) {
            EXPECT_EQ(r.hits[j].id, serial[i][j].id)
                << "query " << i << " rank " << j;
            EXPECT_EQ(r.hits[j].dist, serial[i][j].dist)
                << "query " << i << " rank " << j;
        }
    }

    const auto ts = tiered.stats();
    EXPECT_EQ(ts.queries, nq_);
    EXPECT_EQ(ts.hotOnlyQueries + ts.coldOnlyQueries + ts.splitQueries,
              nq_);
}

TEST_F(EngineFixture, StatsSnapshotIsConsistent)
{
    const auto engine = EngineBuilder(*index_)
                            .searchThreads(2)
                            .batching({.maxBatch = 16,
                                       .timeoutSeconds = 1e-3})
                            .build();

    for (std::size_t i = 0; i < nq_; ++i)
        engine->submit({.query = query(i)});
    engine->drain();

    const auto s = engine->stats();
    EXPECT_EQ(s.submitted, nq_);
    EXPECT_EQ(s.served, nq_);
    EXPECT_EQ(s.expired, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.completed, nq_);
    EXPECT_GE(s.batches, (nq_ + 15) / 16);
    EXPECT_GT(s.meanBatchSize, 0.0);
    EXPECT_LE(s.meanBatchSize, 16.0);
    EXPECT_EQ(s.totalLatency.count, nq_);
    EXPECT_LE(s.totalLatency.p50, s.totalLatency.p90);
    EXPECT_LE(s.totalLatency.p90, s.totalLatency.p99);
    EXPECT_LE(s.totalLatency.p99, s.totalLatency.max);
    // Queue + search bound total from below for every sample mean.
    EXPECT_LE(s.queueLatency.mean, s.totalLatency.mean + 1e-12);
    EXPECT_LE(s.searchLatency.mean, s.totalLatency.mean + 1e-12);
}

} // namespace
} // namespace vlr::core
