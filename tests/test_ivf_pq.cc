/**
 * @file
 * Tests for IVF-PQ and IVF-PQ fast-scan indexes: recall against ground
 * truth, timing breakdowns, batch search and memory accounting.
 */

#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vecsearch/flat_index.h"
#include "vecsearch/ivf_pq.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/kmeans.h"

namespace vlr::vs
{
namespace
{

struct IvfPqFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(7);
        // Clustered data so PQ compression behaves like real corpora.
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
        KMeansParams p;
        p.k = nlist_;
        const auto km = kmeansTrain(data_, n_, d_, p);
        cq_ = std::make_shared<FlatCoarseQuantizer>(km.centroids, nlist_,
                                                    d_);
        flat_ = std::make_unique<FlatIndex>(d_);
        flat_->add(data_, n_);
        queries_.resize(nq_ * d_);
        for (std::size_t i = 0; i < nq_; ++i) {
            const std::size_t c = rng.uniformU64(ncenters_);
            for (std::size_t j = 0; j < d_; ++j)
                queries_[i * d_ + j] =
                    centers[c * d_ + j] +
                    static_cast<float>(rng.gaussian(0.0, 0.2));
        }
    }

    double
    recallAt10(const std::vector<std::vector<SearchHit>> &results) const
    {
        std::size_t found = 0;
        for (std::size_t i = 0; i < nq_; ++i) {
            const auto exact = flat_->search(queries_.data() + i * d_, 10);
            std::set<idx_t> truth;
            for (const auto &h : exact)
                truth.insert(h.id);
            for (const auto &h : results[i])
                found += truth.count(h.id);
        }
        return static_cast<double>(found) / (nq_ * 10);
    }

    const std::size_t n_ = 3000, d_ = 16, nlist_ = 32, nq_ = 25;
    const std::size_t ncenters_ = 40;
    std::vector<float> data_;
    std::vector<float> queries_;
    std::shared_ptr<FlatCoarseQuantizer> cq_;
    std::unique_ptr<FlatIndex> flat_;
};

TEST_F(IvfPqFixture, ReasonableRecallAtFullProbe)
{
    IvfPqIndex index(cq_, 8, 8);
    index.train(data_, n_);
    index.add(data_, n_);
    const auto results =
        index.searchBatch(queries_, nq_, 10, nlist_);
    EXPECT_GT(recallAt10(results), 0.7);
}

TEST_F(IvfPqFixture, ResidualEncodingImprovesRecall)
{
    IvfPqIndex plain(cq_, 4, 8, false);
    IvfPqIndex residual(cq_, 4, 8, true);
    plain.train(data_, n_);
    residual.train(data_, n_);
    plain.add(data_, n_);
    residual.add(data_, n_);
    const auto rp = recallAt10(plain.searchBatch(queries_, nq_, 10, 16));
    const auto rr =
        recallAt10(residual.searchBatch(queries_, nq_, 10, 16));
    EXPECT_GE(rr, rp - 0.05); // residual never meaningfully worse
}

TEST_F(IvfPqFixture, BreakdownComponentsPositiveAndSum)
{
    IvfPqIndex index(cq_, 8, 8);
    index.train(data_, n_);
    index.add(data_, n_);
    SearchBreakdown bd;
    index.searchBatch(queries_, nq_, 10, 8, &bd);
    EXPECT_GT(bd.cqSeconds, 0.0);
    EXPECT_GT(bd.lutBuildSeconds, 0.0);
    EXPECT_GT(bd.scanSeconds, 0.0);
    EXPECT_NEAR(bd.total(),
                bd.cqSeconds + bd.lutBuildSeconds + bd.scanSeconds,
                1e-12);
}

TEST_F(IvfPqFixture, BatchSearchMatchesSingleSearch)
{
    IvfPqIndex index(cq_, 4, 8);
    index.train(data_, n_);
    index.add(data_, n_);
    const auto batch = index.searchBatch(queries_, nq_, 5, 8);
    for (std::size_t i = 0; i < nq_; ++i) {
        const auto single = index.search(queries_.data() + i * d_, 5, 8);
        ASSERT_EQ(batch[i].size(), single.size());
        for (std::size_t j = 0; j < single.size(); ++j)
            EXPECT_EQ(batch[i][j], single[j]);
    }
}

TEST_F(IvfPqFixture, SearchClustersSubsetOfFullSearch)
{
    IvfPqIndex index(cq_, 4, 8);
    index.train(data_, n_);
    index.add(data_, n_);
    const float *q = queries_.data();
    const auto probes = cq_->probe(q, 8);
    const auto full = index.search(q, 10, 8);
    const auto subset = index.searchClusters(q, 10, probes.clusters);
    ASSERT_EQ(full.size(), subset.size());
    for (std::size_t j = 0; j < full.size(); ++j)
        EXPECT_EQ(full[j], subset[j]);
}

TEST_F(IvfPqFixture, MemoryBytesGrowsWithVectors)
{
    IvfPqIndex index(cq_, 8, 8);
    index.train(data_, n_);
    index.add(data_, n_ / 2);
    const auto half = index.memoryBytes();
    index.add(std::span<const float>(data_).subspan(n_ / 2 * d_),
              n_ - n_ / 2);
    EXPECT_GT(index.memoryBytes(), half);
    // Codes alone are n * m bytes; memory must be at least that.
    EXPECT_GE(index.memoryBytes(), n_ * 8);
}

TEST_F(IvfPqFixture, ListSizesPartitionCorpus)
{
    IvfPqIndex index(cq_, 4, 8);
    index.train(data_, n_);
    index.add(data_, n_);
    std::size_t total = 0;
    for (const auto s : index.listSizes())
        total += s;
    EXPECT_EQ(total, n_);
    EXPECT_EQ(index.size(), n_);
}

// --- Fast-scan index ----------------------------------------------------

TEST_F(IvfPqFixture, FastScanRecallTracksPlainPq4)
{
    IvfPqIndex plain(cq_, 8, 4);
    IvfPqFastScanIndex fast(cq_, 8);
    plain.train(data_, n_);
    fast.train(data_, n_);
    plain.add(data_, n_);
    fast.add(data_, n_);
    const auto rp = recallAt10(plain.searchBatch(queries_, nq_, 10, 16));
    const auto rf = recallAt10(fast.searchBatch(queries_, nq_, 10, 16));
    // The uint8-quantized LUT costs at most a few recall points.
    EXPECT_GE(rf, rp - 0.1);
}

TEST_F(IvfPqFixture, FastScanBreakdownPopulated)
{
    IvfPqFastScanIndex fast(cq_, 8);
    fast.train(data_, n_);
    fast.add(data_, n_);
    SearchBreakdown bd;
    fast.searchBatch(queries_, nq_, 10, 8, &bd);
    EXPECT_GT(bd.cqSeconds, 0.0);
    EXPECT_GT(bd.scanSeconds, 0.0);
}

TEST_F(IvfPqFixture, FastScanSizeAndMemory)
{
    IvfPqFastScanIndex fast(cq_, 8);
    fast.train(data_, n_);
    fast.add(data_, n_);
    EXPECT_EQ(fast.size(), n_);
    // Packed codes: >= n/2 bytes per sub-quantizer (4-bit).
    EXPECT_GE(fast.memoryBytes(), n_ * 8 / 2);
    std::size_t total = 0;
    for (const auto s : fast.listSizes())
        total += s;
    EXPECT_EQ(total, n_);
}

TEST_F(IvfPqFixture, FastScanSearchClustersConsistent)
{
    IvfPqFastScanIndex fast(cq_, 8);
    fast.train(data_, n_);
    fast.add(data_, n_);
    const float *q = queries_.data();
    const auto probes = cq_->probe(q, 8);
    const auto full = fast.search(q, 10, 8);
    const auto subset = fast.searchClusters(q, 10, probes.clusters);
    ASSERT_EQ(full.size(), subset.size());
    for (std::size_t j = 0; j < full.size(); ++j)
        EXPECT_EQ(full[j].id, subset[j].id);
}

TEST_F(IvfPqFixture, FastScanZeroKOrNprobeReturnsNothing)
{
    IvfPqFastScanIndex fast(cq_, 8);
    fast.train(data_, n_);
    fast.add(data_, n_);
    const float *q = queries_.data();
    EXPECT_TRUE(fast.quantizer().probe(q, 0).clusters.empty());
    EXPECT_TRUE(fast.search(q, 0, 4).empty());
    EXPECT_TRUE(fast.search(q, 10, 0).empty());
    EXPECT_TRUE(
        fast.searchClusters(q, 0, cq_->probe(q, 4).clusters).empty());
    for (const auto &hits :
         fast.searchBatch(std::span(queries_).first(4 * d_), 4, 0, 8))
        EXPECT_TRUE(hits.empty());
}

TEST_F(IvfPqFixture, FastScanIncrementalAddMatchesOneShot)
{
    // The streaming-ingestion contract: adding a corpus in many
    // addPreassigned() calls yields byte-identical packed lists to one
    // call (the per-cluster append path, not a wholesale re-pack).
    std::vector<std::int32_t> assign(n_);
    for (std::size_t i = 0; i < n_; ++i)
        assign[i] = cq_->probe(data_.data() + i * d_, 1).clusters[0];

    IvfPqFastScanIndex oneshot(cq_, 8), incremental(cq_, 8);
    oneshot.train(data_, n_);
    incremental.train(data_, n_);
    oneshot.addPreassigned(data_, n_, assign);
    const std::size_t chunk = 257; // deliberately not a 32 multiple
    for (std::size_t off = 0; off < n_; off += chunk) {
        const std::size_t len = std::min(chunk, n_ - off);
        incremental.addPreassigned(
            std::span<const float>(data_.data() + off * d_, len * d_),
            len,
            std::span<const std::int32_t>(assign.data() + off, len));
    }

    ASSERT_EQ(incremental.size(), oneshot.size());
    for (cluster_id_t c = 0; c < static_cast<cluster_id_t>(nlist_);
         ++c) {
        const auto ia = oneshot.listIds(c);
        const auto ib = incremental.listIds(c);
        ASSERT_EQ(ia.size(), ib.size()) << "cluster " << c;
        EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()))
            << "cluster " << c;
        const auto pa = oneshot.listPacked(c);
        const auto pb = incremental.listPacked(c);
        ASSERT_EQ(pa.size(), pb.size()) << "cluster " << c;
        EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()))
            << "cluster " << c;
    }
}

TEST_F(IvfPqFixture, FastScanFromPartsRebuildsBitIdentical)
{
    IvfPqFastScanIndex fast(cq_, 8);
    fast.train(data_, n_);
    fast.add(data_, n_);

    std::vector<std::vector<idx_t>> ids(nlist_);
    std::vector<std::vector<std::uint8_t>> packed(nlist_);
    for (std::size_t c = 0; c < nlist_; ++c) {
        const auto la = fast.listIds(static_cast<cluster_id_t>(c));
        const auto lp = fast.listPacked(static_cast<cluster_id_t>(c));
        ids[c].assign(la.begin(), la.end());
        packed[c].assign(lp.begin(), lp.end());
    }
    const auto rebuilt = IvfPqFastScanIndex::fromParts(
        cq_, fast.pq(), std::move(ids), std::move(packed));
    ASSERT_EQ(rebuilt.size(), fast.size());
    for (std::size_t i = 0; i < nq_; ++i) {
        const float *q = queries_.data() + i * d_;
        const auto a = fast.search(q, 10, 8);
        const auto b = rebuilt.search(q, 10, 8);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t j = 0; j < a.size(); ++j) {
            EXPECT_EQ(a[j].id, b[j].id);
            EXPECT_EQ(a[j].dist, b[j].dist);
        }
    }
}

TEST(IvfPqFastScan, RejectsSubQuantizerCountsWhoseScoresOverflow)
{
    // m uint8 LUT entries sum into a uint16 lane: m = 260 could wrap.
    const auto wide = [](std::size_t d) {
        return std::make_shared<FlatCoarseQuantizer>(
            std::vector<float>(d, 0.f), 1, d);
    };
    EXPECT_THROW(IvfPqFastScanIndex(wide(520), 260), std::runtime_error);
    EXPECT_NO_THROW(IvfPqFastScanIndex(wide(2 * kMaxFastScanSub),
                                       kMaxFastScanSub));
}

TEST_F(IvfPqFixture, FastScanFromPartsRejectsEightBitPq)
{
    const std::size_t m = 8, ksub = 256;
    auto pq = ProductQuantizer::fromCodebooks(
        d_, m, 8, std::vector<float>(m * ksub * (d_ / m), 0.f));
    EXPECT_THROW(IvfPqFastScanIndex::fromParts(
                     cq_, std::move(pq),
                     std::vector<std::vector<idx_t>>(nlist_),
                     std::vector<std::vector<std::uint8_t>>(nlist_)),
                 std::runtime_error);
}

} // namespace
} // namespace vlr::vs
