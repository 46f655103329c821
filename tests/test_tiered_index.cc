/**
 * @file
 * Tests for the tiered hot/cold index runtime: exact result parity with
 * single-tier serial search for any coverage and shard count,
 * pruned-routing edge cases (fully hot / fully cold / split probe
 * lists, rho = 0 and rho = 1), tie-breaking when PQ4 codes collapse,
 * pluggable shard backends (throttled double under concurrent
 * repartition), live access counting and its drain consistency
 * contract, concurrent repartition, and rejection of malformed
 * placements.
 */

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/tiered_index.h"
#include "vecsearch/kmeans.h"

namespace vlr::core
{
namespace
{

/** Fixed-seed clustered corpus + a trained fast-scan index. */
struct TieredFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(42);
        centers_.resize(ncenters_ * d_);
        for (auto &x : centers_)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
        buildIndex(rng, 0.15);

        queries_.resize(nq_ * d_);
        for (std::size_t i = 0; i < nq_; ++i) {
            const std::size_t c = rng.uniformU64(ncenters_);
            for (std::size_t j = 0; j < d_; ++j)
                queries_[i * d_ + j] =
                    centers_[c * d_ + j] +
                    static_cast<float>(rng.gaussian(0.0, 0.2));
        }
    }

    /** Corpus of n_ points around the centers, and its index. */
    void
    buildIndex(Rng &rng, double sigma)
    {
        data_.resize(n_ * d_);
        for (std::size_t i = 0; i < n_; ++i) {
            const std::size_t c = rng.uniformU64(ncenters_);
            for (std::size_t j = 0; j < d_; ++j)
                data_[i * d_ + j] =
                    centers_[c * d_ + j] +
                    static_cast<float>(rng.gaussian(0.0, sigma));
        }
        vs::KMeansParams p;
        p.k = nlist_;
        const auto km = vs::kmeansTrain(data_, n_, d_, p);
        cq_ = std::make_shared<vs::FlatCoarseQuantizer>(km.centroids,
                                                        nlist_, d_);
        index_ = std::make_unique<vs::IvfPqFastScanIndex>(cq_, m_);
        index_->train(data_, n_);
        index_->add(data_, n_);
    }

    /** Top-`count` clusters by descending list size (deterministic). */
    std::vector<cluster_id_t>
    topBySize(std::size_t count) const
    {
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
        order.resize(std::min(count, order.size()));
        return order;
    }

    void
    expectParity(const TieredIndex &tiered, std::size_t k,
                 std::size_t nprobe) const
    {
        for (std::size_t i = 0; i < nq_; ++i) {
            const float *q = queries_.data() + i * d_;
            const auto expected = index_->search(q, k, nprobe);
            const auto got = tiered.search(q, k, nprobe);
            ASSERT_EQ(got.size(), expected.size()) << "query " << i;
            for (std::size_t j = 0; j < expected.size(); ++j) {
                EXPECT_EQ(got[j].id, expected[j].id)
                    << "query " << i << " rank " << j;
                EXPECT_EQ(got[j].dist, expected[j].dist)
                    << "query " << i << " rank " << j;
            }
        }
    }

    /** searchBatchParallel on @p pool matches flat serial search. */
    void
    expectBatchParity(const TieredIndex &tiered, ThreadPool &pool,
                      TieredBatchStats *bs = nullptr) const
    {
        const auto batched = tiered.searchBatchParallel(
            queries_, nq_, k_, nprobe_, pool, bs);
        ASSERT_EQ(batched.size(), nq_);
        for (std::size_t i = 0; i < nq_; ++i) {
            const auto expected =
                index_->search(queries_.data() + i * d_, k_, nprobe_);
            ASSERT_EQ(batched[i].size(), expected.size())
                << "query " << i;
            for (std::size_t j = 0; j < expected.size(); ++j) {
                EXPECT_EQ(batched[i][j].id, expected[j].id)
                    << "query " << i << " rank " << j;
                EXPECT_EQ(batched[i][j].dist, expected[j].dist)
                    << "query " << i << " rank " << j;
            }
        }
    }

    const std::size_t n_ = 3000;
    const std::size_t d_ = 16;
    const std::size_t m_ = 8;
    const std::size_t ncenters_ = 24;
    const std::size_t nlist_ = 32;
    const std::size_t nq_ = 48;
    const std::size_t k_ = 10;
    const std::size_t nprobe_ = 8;
    std::vector<float> centers_;
    std::vector<float> data_;
    std::vector<float> queries_;
    std::shared_ptr<vs::FlatCoarseQuantizer> cq_;
    std::unique_ptr<vs::IvfPqFastScanIndex> index_;
};

TEST_F(TieredFixture, ShardViewScansTheSourceLists)
{
    const auto hot = topBySize(nlist_ / 2);
    const FastScanShardBackend shard(*index_, hot);

    std::size_t expected_bytes = 0;
    for (const cluster_id_t c : hot)
        expected_bytes += index_->listBytes(c);
    EXPECT_EQ(shard.bytes(), expected_bytes);
    EXPECT_EQ(shard.numClusters(), hot.size());

    // Scanning the shard's clusters with a prepared LUT returns
    // bit-identical hits.
    vs::SearchScratch scratch;
    for (std::size_t i = 0; i < 8; ++i) {
        const float *q = queries_.data() + i * d_;
        const auto a = index_->searchClusters(q, k_, hot);
        const vs::QuantizedLut qlut =
            vs::buildQuantizedLut(index_->pq(), q, scratch);
        vs::TopK topk(k_);
        shard.scanClusters(q, qlut, hot, scratch, topk);
        const auto b = topk.sortedHits();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t j = 0; j < a.size(); ++j) {
            EXPECT_EQ(a[j].id, b[j].id);
            EXPECT_EQ(a[j].dist, b[j].dist);
        }
    }
}

TEST_F(TieredFixture, ParityAcrossCoverages)
{
    // Acceptance: exact top-k parity with single-tier serial search at
    // rho in {0, 0.25, 1.0} (and an arbitrary split for good measure).
    for (const double rho : {0.0, 0.25, 1.0}) {
        const auto count = static_cast<std::size_t>(
            rho * static_cast<double>(nlist_) + 0.5);
        TieredIndex tiered(*index_, topBySize(count));
        EXPECT_EQ(tiered.numHotClusters(), count);
        expectParity(tiered, k_, nprobe_);
    }
}

TEST_F(TieredFixture, ParallelBatchMatchesSerialTiered)
{
    TieredIndex tiered(*index_, topBySize(nlist_ / 4));
    ThreadPool pool(4);
    TieredBatchStats bs;
    expectBatchParity(tiered, pool, &bs);
    EXPECT_EQ(bs.queries, nq_);
    EXPECT_EQ(bs.hotOnlyQueries + bs.coldOnlyQueries + bs.splitQueries,
              nq_);
    // The route and scan shares split the batch wall between them.
    EXPECT_GT(bs.routeSeconds, 0.0);
    EXPECT_GT(bs.scanSeconds, 0.0);
}

TEST_F(TieredFixture, PerQueryNprobeBatchMatchesSerialTiered)
{
    // Heterogeneous probe depths in one batch (the deadline-aware
    // dispatcher's batch shape) must reproduce per-request serial
    // tiered searches bit for bit, at multiple shard counts. Both run
    // one per-query function, so each query is also checked against
    // the flat index, which a bug shared by the two would not pass.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
        TieredIndex tiered(*index_, topBySize(nlist_ / 4),
                           TieredOptions{shards, {}});
        std::vector<std::size_t> nprobes(nq_);
        for (std::size_t i = 0; i < nq_; ++i)
            nprobes[i] = 1 + (i * 5) % 16;
        ThreadPool pool(4);
        const auto batched = tiered.searchBatchParallel(
            queries_, nq_, k_, nprobes, pool);
        for (std::size_t i = 0; i < nq_; ++i) {
            const float *q = queries_.data() + i * d_;
            const auto serial = tiered.search(q, k_, nprobes[i]);
            const auto flat = index_->search(q, k_, nprobes[i]);
            for (const auto *expected : {&serial, &flat}) {
                ASSERT_EQ(batched[i].size(), expected->size())
                    << "shards " << shards << " query " << i;
                for (std::size_t j = 0; j < expected->size(); ++j) {
                    EXPECT_EQ(batched[i][j].id, (*expected)[j].id)
                        << "shards " << shards << " query " << i;
                    EXPECT_EQ(batched[i][j].dist, (*expected)[j].dist)
                        << "shards " << shards << " query " << i;
                }
            }
        }
    }
}

TEST_F(TieredFixture, StatsTrackPerShardScanLatency)
{
    TieredIndex tiered(*index_, topBySize(nlist_ / 2),
                       TieredOptions{2, {}});
    ThreadPool pool(4);
    tiered.searchBatchParallel(queries_, nq_, k_, nprobe_, pool);

    const auto s = tiered.stats();
    ASSERT_EQ(s.shardScanSeconds.size(), 2u);
    ASSERT_EQ(s.shardScanCounts.size(), 2u);
    for (std::size_t sh = 0; sh < 2; ++sh) {
        // Every shard holding probes was scanned, and scans took
        // measurable time.
        if (s.shardProbeCounts[sh] > 0) {
            EXPECT_GT(s.shardScanCounts[sh], 0u) << "shard " << sh;
            EXPECT_GT(s.shardScanSeconds[sh], 0.0) << "shard " << sh;
        }
        // A scan covers >= 1 probe, so scans never outnumber probes.
        EXPECT_LE(s.shardScanCounts[sh], s.shardProbeCounts[sh])
            << "shard " << sh;
    }
    // Cold scans accounted the same way: one cold bucket scan per
    // query that is not hot-only.
    EXPECT_EQ(s.coldScanCounts, s.queries - s.hotOnlyQueries);
    if (s.totalProbes > s.hotProbes) {
        EXPECT_GT(s.coldScanSeconds, 0.0);
    }
}

TEST_F(TieredFixture, FullyHotQuerySkipsColdTier)
{
    // Hot set = exactly query 0's probe list: the routed query must be
    // served by the hot tier alone.
    const auto pl = cq_->probe(queries_.data(), nprobe_);
    TieredIndex tiered(*index_, pl.clusters);

    TieredQueryStats qs;
    const auto hits = tiered.search(queries_.data(), k_, nprobe_,
                                    nullptr, &qs);
    EXPECT_TRUE(qs.hotOnly);
    EXPECT_EQ(qs.coldProbes, 0u);
    EXPECT_EQ(qs.hotProbes, pl.clusters.size());
    EXPECT_DOUBLE_EQ(qs.hitRate, 1.0);

    const auto expected = index_->search(queries_.data(), k_, nprobe_);
    ASSERT_EQ(hits.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j)
        EXPECT_EQ(hits[j].id, expected[j].id);

    const auto s = tiered.stats();
    EXPECT_EQ(s.hotOnlyQueries, 1u);
}

TEST_F(TieredFixture, SplitQueryMergesTiers)
{
    // Hot set = the first half of query 1's probes: the query must
    // split across both tiers and still match the serial result.
    const float *q = queries_.data() + d_;
    const auto pl = cq_->probe(q, nprobe_);
    ASSERT_GE(pl.clusters.size(), 2u);
    const std::vector<cluster_id_t> hot(
        pl.clusters.begin(),
        pl.clusters.begin() + pl.clusters.size() / 2);
    TieredIndex tiered(*index_, hot);

    TieredQueryStats qs;
    const auto hits = tiered.search(q, k_, nprobe_, nullptr, &qs);
    EXPECT_FALSE(qs.hotOnly);
    EXPECT_EQ(qs.hotProbes, hot.size());
    EXPECT_EQ(qs.coldProbes, pl.clusters.size() - hot.size());
    EXPECT_GT(qs.hitRate, 0.0);
    EXPECT_LT(qs.hitRate, 1.0);

    const auto expected = index_->search(q, k_, nprobe_);
    ASSERT_EQ(hits.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(hits[j].id, expected[j].id);
        EXPECT_EQ(hits[j].dist, expected[j].dist);
    }

    const auto s = tiered.stats();
    EXPECT_EQ(s.splitQueries, 1u);
}

TEST_F(TieredFixture, EmptyHotTierServesEverythingCold)
{
    // rho = 0 degenerate: every probe routes to the cold (source) tier.
    TieredIndex tiered(*index_, {});
    EXPECT_EQ(tiered.numHotClusters(), 0u);
    EXPECT_DOUBLE_EQ(tiered.rho(), 0.0);

    expectParity(tiered, k_, nprobe_);
    const auto s = tiered.stats();
    EXPECT_EQ(s.coldOnlyQueries, s.queries);
    EXPECT_EQ(s.hotOnlyQueries, 0u);
    EXPECT_EQ(s.splitQueries, 0u);
    EXPECT_DOUBLE_EQ(s.hotProbeFraction, 0.0);
    EXPECT_DOUBLE_EQ(s.meanHitRate, 0.0);
    EXPECT_EQ(s.hotBytes, 0u);
}

TEST_F(TieredFixture, FullCoverageNeverTouchesColdTier)
{
    // rho = 1 degenerate: the hot tier holds every cluster.
    std::vector<cluster_id_t> all(nlist_);
    std::iota(all.begin(), all.end(), 0);
    TieredIndex tiered(*index_, all);
    EXPECT_DOUBLE_EQ(tiered.rho(), 1.0);

    expectParity(tiered, k_, nprobe_);
    const auto s = tiered.stats();
    EXPECT_EQ(s.hotOnlyQueries, s.queries);
    EXPECT_EQ(s.coldOnlyQueries, 0u);
    EXPECT_EQ(s.splitQueries, 0u);
    EXPECT_DOUBLE_EQ(s.hotProbeFraction, 1.0);
    EXPECT_DOUBLE_EQ(s.meanHitRate, 1.0);
}

TEST_F(TieredFixture, AccessCountsMatchProbeTraffic)
{
    TieredIndex tiered(*index_, topBySize(nlist_ / 4));
    for (std::size_t i = 0; i < nq_; ++i)
        tiered.search(queries_.data() + i * d_, k_, nprobe_);

    // Recompute expected per-cluster probe counts independently.
    std::vector<double> expected(nlist_, 0.0);
    for (std::size_t i = 0; i < nq_; ++i) {
        const auto pl = cq_->probe(queries_.data() + i * d_, nprobe_);
        for (const cluster_id_t c : pl.clusters)
            expected[static_cast<std::size_t>(c)] += 1.0;
    }

    const auto counts = tiered.drainAccessCounts();
    ASSERT_EQ(counts.size(), nlist_);
    for (std::size_t c = 0; c < nlist_; ++c)
        EXPECT_DOUBLE_EQ(counts[c], expected[c]) << "cluster " << c;

    // Draining resets.
    for (const double v : tiered.drainAccessCounts())
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_F(TieredFixture, RepartitionPromotesObservedHotClusters)
{
    TieredIndex tiered(*index_, {});
    // Hammer the first 8 queries so their clusters dominate the counts.
    for (std::size_t rep = 0; rep < 4; ++rep)
        for (std::size_t i = 0; i < 8; ++i)
            tiered.search(queries_.data() + i * d_, k_, nprobe_);

    auto counts = tiered.drainAccessCounts();
    cluster_id_t most = 0;
    for (std::size_t c = 1; c < nlist_; ++c)
        if (counts[c] > counts[static_cast<std::size_t>(most)])
            most = static_cast<cluster_id_t>(c);

    const auto profile = tiered.profileFromCounts(std::move(counts));
    tiered.repartition(profile.hotClusters(0.25));

    const auto bm = tiered.hotBitmap();
    EXPECT_TRUE(bm[static_cast<std::size_t>(most)]);
    EXPECT_EQ(tiered.numHotClusters(), profile.numHot(0.25));
    EXPECT_EQ(tiered.stats().repartitions, 1u);
    expectParity(tiered, k_, nprobe_);
}

TEST_F(TieredFixture, RepartitionIsSafeUnderConcurrentSearches)
{
    TieredIndex tiered(*index_, topBySize(nlist_ / 4));

    // Precompute serial expectations once; any snapshot must match.
    std::vector<std::vector<vs::SearchHit>> expected(nq_);
    for (std::size_t i = 0; i < nq_; ++i)
        expected[i] = index_->search(queries_.data() + i * d_, k_,
                                     nprobe_);

    std::atomic<bool> failed{false};
    std::vector<std::thread> searchers;
    for (std::size_t t = 0; t < 4; ++t) {
        searchers.emplace_back([&, t] {
            vs::SearchScratch scratch;
            for (std::size_t rep = 0; rep < 20; ++rep) {
                for (std::size_t i = t; i < nq_; i += 4) {
                    const auto got =
                        tiered.search(queries_.data() + i * d_, k_,
                                      nprobe_, &scratch);
                    if (got.size() != expected[i].size()) {
                        failed = true;
                        continue;
                    }
                    for (std::size_t j = 0; j < got.size(); ++j)
                        if (got[j].id != expected[i][j].id ||
                            got[j].dist != expected[i][j].dist)
                            failed = true;
                }
            }
        });
    }

    // Flip between placements while the searchers run.
    for (std::size_t rep = 0; rep < 10; ++rep) {
        tiered.repartition(topBySize(nlist_ / 2));
        tiered.repartition({});
        tiered.repartition(topBySize(nlist_ / 8));
    }
    for (auto &th : searchers)
        th.join();

    EXPECT_FALSE(failed.load());
    EXPECT_EQ(tiered.stats().repartitions, 30u);
}

TEST_F(TieredFixture, MultiShardParityAcrossShardCountsAndCoverages)
{
    // Acceptance: bit-identical top-k vs the single-tier serial search
    // for shard counts {1, 2, 4} x rho {0, 0.25, 1}.
    for (const std::size_t shards : {1ul, 2ul, 4ul}) {
        for (const double rho : {0.0, 0.25, 1.0}) {
            const auto count = static_cast<std::size_t>(
                rho * static_cast<double>(nlist_) + 0.5);
            TieredOptions opts;
            opts.numShards = shards;
            TieredIndex tiered(*index_, topBySize(count), opts);
            EXPECT_EQ(tiered.numShards(), shards);
            EXPECT_EQ(tiered.numHotClusters(), count);
            expectParity(tiered, k_, nprobe_);

            const auto s = tiered.stats();
            EXPECT_EQ(s.numShards, shards);
            ASSERT_EQ(s.shardBytes.size(), shards);
            std::size_t bytes = 0;
            for (const std::size_t b : s.shardBytes)
                bytes += b;
            EXPECT_EQ(bytes, s.hotBytes);
            // Every hot probe was attributed to exactly one shard.
            ASSERT_EQ(s.shardProbeCounts.size(), shards);
            std::size_t shard_probes = 0;
            for (const std::size_t p : s.shardProbeCounts)
                shard_probes += p;
            EXPECT_EQ(shard_probes, s.hotProbes);
        }
    }
}

TEST_F(TieredFixture, ParityWhenPq4CodesCollapse)
{
    // Points within 1e-4 of the centers share one PQ4 code per center,
    // so nearly every scanned lane ties the k-th best and ids alone
    // decide the top-k, across every bucket scanned into the query's
    // one TopK, serially and in batches.
    Rng rng(43);
    buildIndex(rng, 1e-4);
    const auto hits = index_->search(queries_.data(), k_, nprobe_);
    ASSERT_EQ(hits.size(), k_);
    ASSERT_EQ(hits.front().dist, hits.back().dist);
    ThreadPool pool(4);
    for (const std::size_t shards : {1ul, 2ul, 3ul}) {
        for (const double rho : {0.25, 0.5, 1.0}) {
            const auto count = static_cast<std::size_t>(
                rho * static_cast<double>(nlist_) + 0.5);
            TieredOptions opts;
            opts.numShards = shards;
            TieredIndex tiered(*index_, topBySize(count), opts);
            expectParity(tiered, k_, nprobe_);
            expectBatchParity(tiered, pool);
            EXPECT_TRUE(tiered.search(queries_.data(), 0, nprobe_).empty());
        }
    }
}

TEST_F(TieredFixture, SplitterPlacedShardsPreserveParity)
{
    // Profile-driven constructor: placement comes from
    // IndexSplitter::split(profile, rho, num_shards), the same code
    // path the simulator and the partitioner use.
    std::vector<double> counts(nlist_), work(nlist_), bytes(nlist_);
    for (std::size_t c = 0; c < nlist_; ++c) {
        const auto id = static_cast<cluster_id_t>(c);
        counts[c] = static_cast<double>(index_->listSize(id));
        work[c] = static_cast<double>(index_->listSize(id));
        bytes[c] = static_cast<double>(index_->listBytes(id));
    }
    const AccessProfile profile(counts, work, bytes);
    for (const std::size_t shards : {2ul, 4ul}) {
        TieredOptions opts;
        opts.numShards = shards;
        TieredIndex tiered(*index_, profile, 0.5, opts);
        EXPECT_EQ(tiered.numHotClusters(), profile.numHot(0.5));
        expectParity(tiered, k_, nprobe_);
        // The size-balanced dealing fills every shard when there are
        // at least num_shards hot clusters.
        const auto s = tiered.stats();
        for (const std::size_t b : s.shardBytes)
            EXPECT_GT(b, 0u);
    }
}

TEST_F(TieredFixture, RejectsAProfileOfAnotherIndex)
{
    // Routing indexes the placement by the source's cluster ids, so a
    // profile over a different cluster count must not build a tier.
    for (const std::size_t nlist : {nlist_ / 2, nlist_ + 1}) {
        const AccessProfile profile(std::vector<double>(nlist, 1.0),
                                    std::vector<double>(nlist, 1.0),
                                    std::vector<double>(nlist, 1.0));
        EXPECT_THROW((TieredIndex{*index_, profile, 0.5}),
                     std::invalid_argument)
            << "profile nlist " << nlist;
    }
}

TEST_F(TieredFixture, RejectsHotClusterIdsOutOfRange)
{
    const auto past_end = static_cast<cluster_id_t>(nlist_);
    for (const std::vector<cluster_id_t> &hot :
         {std::vector<cluster_id_t>{0, past_end},
          std::vector<cluster_id_t>{-1}}) {
        EXPECT_THROW((TieredIndex{*index_, hot}), std::invalid_argument);
        // A rejected repartition leaves the current placement serving.
        TieredIndex tiered(*index_, topBySize(nlist_ / 4));
        EXPECT_THROW(tiered.repartition(hot), std::invalid_argument);
        EXPECT_EQ(tiered.numHotClusters(), nlist_ / 4);
        EXPECT_EQ(tiered.stats().repartitions, 0u);
        expectParity(tiered, k_, nprobe_);
    }
}

TEST_F(TieredFixture, RejectsRepeatedHotClusterIds)
{
    // A repeated id would count twice in numHot, rho and hotBytes.
    const std::vector<cluster_id_t> hot = {3, 5, 3};
    EXPECT_THROW((TieredIndex{*index_, hot}), std::invalid_argument);
    TieredIndex tiered(*index_, topBySize(nlist_ / 4));
    EXPECT_THROW(tiered.repartition(hot), std::invalid_argument);
    EXPECT_EQ(tiered.numHotClusters(), nlist_ / 4);
    EXPECT_EQ(tiered.stats().repartitions, 0u);
    expectParity(tiered, k_, nprobe_);
}

TEST_F(TieredFixture, MultiShardParallelBatchMatchesSerial)
{
    TieredOptions opts;
    opts.numShards = 4;
    TieredIndex tiered(*index_, topBySize(nlist_ / 2), opts);
    ThreadPool pool(4);
    TieredBatchStats bs;
    expectBatchParity(tiered, pool, &bs);
    EXPECT_EQ(bs.hotOnlyQueries + bs.coldOnlyQueries + bs.splitQueries,
              nq_);
}

TEST_F(TieredFixture, ThrottledShardsStayCorrectUnderRepartition)
{
    // Generalized snapshot-pinning test: batches run on two throttled
    // (slow-device) shards while the main thread flips placements.
    // Every batch must stay bit-identical to the serial single-tier
    // search, and repartition must never block in-flight batches.
    TieredOptions opts;
    opts.numShards = 2;
    opts.backendFactory = throttledShardFactory(/*delay=*/20e-6);
    TieredIndex tiered(*index_, topBySize(nlist_ / 4), opts);
    EXPECT_EQ(tiered.stats().backend, "throttled(fastscan)");

    std::vector<std::vector<vs::SearchHit>> expected(nq_);
    for (std::size_t i = 0; i < nq_; ++i)
        expected[i] = index_->search(queries_.data() + i * d_, k_,
                                     nprobe_);

    std::atomic<bool> failed{false};
    std::vector<std::thread> searchers;
    for (std::size_t t = 0; t < 2; ++t) {
        searchers.emplace_back([&] {
            ThreadPool pool(2);
            for (std::size_t rep = 0; rep < 6; ++rep) {
                const auto got = tiered.searchBatchParallel(
                    queries_, nq_, k_, nprobe_, pool);
                for (std::size_t i = 0; i < nq_; ++i) {
                    if (got[i].size() != expected[i].size()) {
                        failed = true;
                        continue;
                    }
                    for (std::size_t j = 0; j < got[i].size(); ++j)
                        if (got[i][j].id != expected[i][j].id ||
                            got[i][j].dist != expected[i][j].dist)
                            failed = true;
                }
            }
        });
    }
    for (std::size_t rep = 0; rep < 4; ++rep) {
        tiered.repartition(topBySize(nlist_ / 2));
        tiered.repartition({});
    }
    for (auto &th : searchers)
        th.join();

    EXPECT_FALSE(failed.load());
    EXPECT_EQ(tiered.stats().repartitions, 8u);
    EXPECT_EQ(tiered.numShards(), 2u);
}

TEST_F(TieredFixture, DrainedCountsSumToTotalProbesAcrossConcurrentBatches)
{
    // Consistency contract of drainAccessCounts()/stats(): concurrent
    // drains may split an in-flight batch, but once all searches have
    // completed, the drained counts sum to exactly stats().totalProbes
    // — no probe lost or double-counted.
    TieredOptions opts;
    opts.numShards = 2;
    TieredIndex tiered(*index_, topBySize(nlist_ / 4), opts);

    const std::size_t reps = 8;
    std::atomic<bool> done{false};
    double concurrent_drained = 0.0;
    std::thread drainer([&] {
        while (!done.load(std::memory_order_relaxed)) {
            for (const double v : tiered.drainAccessCounts())
                concurrent_drained += v;
            std::this_thread::yield();
        }
    });

    std::vector<std::thread> searchers;
    for (std::size_t t = 0; t < 3; ++t) {
        searchers.emplace_back([&] {
            ThreadPool pool(2);
            for (std::size_t rep = 0; rep < reps; ++rep)
                tiered.searchBatchParallel(queries_, nq_, k_, nprobe_,
                                           pool);
        });
    }
    for (auto &th : searchers)
        th.join();
    done = true;
    drainer.join();

    double total_drained = concurrent_drained;
    for (const double v : tiered.drainAccessCounts())
        total_drained += v;

    // Independent expectation: every query contributes its probe-list
    // length, 3 threads x reps batches.
    double expected_probes = 0.0;
    for (std::size_t i = 0; i < nq_; ++i)
        expected_probes += static_cast<double>(
            cq_->probe(queries_.data() + i * d_, nprobe_)
                .clusters.size());
    expected_probes *= static_cast<double>(3 * reps);

    const auto s = tiered.stats();
    EXPECT_DOUBLE_EQ(total_drained,
                     static_cast<double>(s.totalProbes));
    EXPECT_DOUBLE_EQ(total_drained, expected_probes);
    EXPECT_EQ(s.hotProbes,
              s.shardProbeCounts[0] + s.shardProbeCounts[1]);
}

TEST_F(TieredFixture, ConcurrentSearchRepartitionDrainStress)
{
    // The full adversarial schedule for the lock-free read path:
    // parallel-batch searchers, serial searchers, a repartition churn
    // thread (snapshot swap + epoch retirement), and a stats drainer
    // all run concurrently. Afterwards the drain consistency contract
    // must hold exactly and the epoch domain must have reclaimed every
    // displaced generation. Run under ASan/UBSan and TSan in CI.
    TieredOptions opts;
    opts.numShards = 2;
    TieredIndex tiered(*index_, topBySize(nlist_ / 4), opts);

    std::atomic<bool> stop{false};
    std::atomic<bool> failed{false};
    double concurrent_drained = 0.0;
    std::thread drainer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            for (const double v : tiered.drainAccessCounts())
                concurrent_drained += v;
            std::this_thread::yield();
        }
    });
    std::thread churner([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            tiered.repartition(topBySize(nlist_ / 2));
            tiered.repartition(topBySize(nlist_ / 8));
        }
    });

    const std::size_t reps = 6;
    std::vector<std::thread> searchers;
    searchers.emplace_back([&] {
        ThreadPool pool(2);
        for (std::size_t rep = 0; rep < reps; ++rep) {
            const auto got = tiered.searchBatchParallel(
                queries_, nq_, k_, nprobe_, pool);
            if (got.size() != nq_)
                failed = true;
        }
    });
    searchers.emplace_back([&] {
        for (std::size_t rep = 0; rep < reps; ++rep)
            for (std::size_t i = 0; i < nq_; ++i) {
                // Any snapshot gives exact parity with the flat index.
                const float *q = queries_.data() + i * d_;
                const auto expected = index_->search(q, k_, nprobe_);
                const auto got = tiered.search(q, k_, nprobe_);
                if (got.size() != expected.size()) {
                    failed = true;
                    continue;
                }
                for (std::size_t j = 0; j < got.size(); ++j)
                    if (got[j].id != expected[j].id ||
                        got[j].dist != expected[j].dist)
                        failed = true;
            }
    });
    for (auto &th : searchers)
        th.join();
    stop = true;
    churner.join();
    drainer.join();
    EXPECT_FALSE(failed.load());

    double total_drained = concurrent_drained;
    for (const double v : tiered.drainAccessCounts())
        total_drained += v;
    double expected_probes = 0.0;
    for (std::size_t i = 0; i < nq_; ++i)
        expected_probes += static_cast<double>(
            cq_->probe(queries_.data() + i * d_, nprobe_)
                .clusters.size());
    expected_probes *= static_cast<double>(2 * reps);

    const auto s = tiered.stats();
    EXPECT_DOUBLE_EQ(total_drained,
                     static_cast<double>(s.totalProbes));
    EXPECT_DOUBLE_EQ(total_drained, expected_probes);

    // Quiescent: one more swap reclaims everything still in limbo —
    // retire() frees eagerly once no reader pins an older epoch.
    tiered.repartition(topBySize(nlist_ / 4));
    EXPECT_EQ(tiered.stats().pendingReclaims, 0u);
}

} // namespace
} // namespace vlr::core
