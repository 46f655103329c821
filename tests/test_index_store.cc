/**
 * @file
 * Tests for the persistence subsystem: IndexStore artifact round-trips
 * (deterministic bytes, bit-identical restored searches, version and
 * corruption rejection), the memory-mapped cold tier (parity with the
 * in-memory cold scan across coverages and shard counts, residency
 * accounting, streaming delta ingestion and artifact merge), and the
 * engine integration (EngineBuilder::fromArtifact cold start, coldTier
 * validation).
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/tiered_index.h"
#include "storage/index_store.h"
#include "storage/mmap_cold_tier.h"
#include "vecsearch/kmeans.h"

namespace vlr::storage
{
namespace
{

namespace fs = std::filesystem;

std::string
tmpPath(const std::string &name)
{
    return (fs::temp_directory_path() / ("vlr_store_" + name)).string();
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
patchU32(const std::string &path, std::size_t offset, std::uint32_t v)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char *>(&v), sizeof v);
    ASSERT_TRUE(f.good());
}

void
expectHitsEq(const std::vector<vs::SearchHit> &got,
             const std::vector<vs::SearchHit> &expected,
             const char *what)
{
    ASSERT_EQ(got.size(), expected.size()) << what;
    for (std::size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(got[j].id, expected[j].id) << what << " rank " << j;
        EXPECT_EQ(got[j].dist, expected[j].dist)
            << what << " rank " << j;
    }
}

/** Fixed-seed clustered corpus, a trained index, and a saved artifact. */
struct StoreFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(7);
        centers_.resize(ncenters_ * d_);
        for (auto &x : centers_)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
        data_ = sample(rng, n_, 0.15);
        vs::KMeansParams p;
        p.k = nlist_;
        const auto km = vs::kmeansTrain(data_, n_, d_, p);
        cq_ = std::make_shared<vs::FlatCoarseQuantizer>(km.centroids,
                                                        nlist_, d_);
        index_ = std::make_unique<vs::IvfPqFastScanIndex>(cq_, m_);
        index_->train(data_, n_);
        index_->add(data_, n_);
        queries_ = sample(rng, nq_, 0.2);
        extra_ = sample(rng, nextra_, 0.15);

        path_ = tmpPath(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name());
        IndexStore::save(path_, *index_);
    }

    void
    TearDown() override
    {
        fs::remove(path_);
    }

    /** Vectors drawn around the fixture's cluster centers. */
    std::vector<float>
    sample(Rng &rng, std::size_t n, double sigma) const
    {
        std::vector<float> v(n * d_);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t c = rng.uniformU64(ncenters_);
            for (std::size_t j = 0; j < d_; ++j)
                v[i * d_ + j] = centers_[c * d_ + j] +
                                static_cast<float>(
                                    rng.gaussian(0.0, sigma));
        }
        return v;
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

    /**
     * Serial and 4-thread batch tiered search both match the in-memory
     * index's serial search.
     */
    void
    expectServesLikeIndex(const core::TieredIndex &tiered,
                          const char *what) const
    {
        ThreadPool pool(4);
        const auto batched =
            tiered.searchBatchParallel(queries_, nq_, k_, nprobe_, pool);
        ASSERT_EQ(batched.size(), nq_) << what;
        for (std::size_t i = 0; i < nq_; ++i) {
            const float *q = queries_.data() + i * d_;
            const auto expected = index_->search(q, k_, nprobe_);
            expectHitsEq(tiered.search(q, k_, nprobe_), expected, what);
            expectHitsEq(batched[i], expected, what);
        }
    }

    const std::size_t n_ = 3000;
    const std::size_t d_ = 16;
    const std::size_t m_ = 8;
    const std::size_t ncenters_ = 24;
    const std::size_t nlist_ = 32;
    const std::size_t nq_ = 32;
    const std::size_t nextra_ = 200;
    const std::size_t k_ = 10;
    const std::size_t nprobe_ = 8;
    std::vector<float> centers_;
    std::vector<float> data_;
    std::vector<float> queries_;
    std::vector<float> extra_;
    std::shared_ptr<vs::FlatCoarseQuantizer> cq_;
    std::unique_ptr<vs::IvfPqFastScanIndex> index_;
    std::string path_;
};

TEST_F(StoreFixture, SaveIsDeterministicByteForByte)
{
    const std::string again = path_ + ".again";
    IndexStore::save(again, *index_);
    const auto a = slurp(path_);
    const auto b = slurp(again);
    fs::remove(again);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b);
}

TEST_F(StoreFixture, RoundTripSearchesAreBitIdentical)
{
    const auto loaded = IndexStore::load(path_);
    EXPECT_EQ(loaded.size(), index_->size());
    EXPECT_EQ(loaded.dim(), index_->dim());
    EXPECT_EQ(loaded.nlist(), index_->nlist());
    for (std::size_t c = 0; c < nlist_; ++c)
        ASSERT_EQ(loaded.listSize(static_cast<cluster_id_t>(c)),
                  index_->listSize(static_cast<cluster_id_t>(c)));
    for (std::size_t i = 0; i < nq_; ++i) {
        const float *q = queries_.data() + i * d_;
        expectHitsEq(loaded.search(q, k_, nprobe_),
                     index_->search(q, k_, nprobe_), "round trip");
    }
}

TEST_F(StoreFixture, InspectReportsTheHeader)
{
    const ArtifactInfo info = IndexStore::inspect(path_);
    EXPECT_EQ(info.formatVersion, IndexStore::kFormatVersion);
    EXPECT_EQ(info.dim, d_);
    EXPECT_EQ(info.m, m_);
    EXPECT_EQ(info.nbits, 4u);
    EXPECT_EQ(info.nlist, nlist_);
    EXPECT_EQ(info.total, n_);
    EXPECT_EQ(info.fileBytes, fs::file_size(path_));
    EXPECT_EQ(info.listsOffset % info.pageSize, 0u);
}

TEST_F(StoreFixture, RejectsBadMagic)
{
    patchU32(path_, 0, 0xDEADBEEF);
    EXPECT_THROW(IndexStore::load(path_), vs::IoError);
    EXPECT_THROW(IndexStore::inspect(path_), vs::IoError);
}

TEST_F(StoreFixture, RejectsFutureFormatVersion)
{
    patchU32(path_, 4, IndexStore::kFormatVersion + 1);
    try {
        IndexStore::load(path_);
        FAIL() << "future version not rejected";
    } catch (const vs::IoError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST_F(StoreFixture, RejectsSubQuantizerCountsWhoseScoresOverflow)
{
    // The header's u64 m sits at offset 16; 300 > kMaxFastScanSub. The
    // header check fires before any section is parsed.
    patchU32(path_, 16, 300);
    try {
        IndexStore::inspect(path_);
        FAIL() << "m = 300 not rejected";
    } catch (const vs::IoError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      std::to_string(vs::kMaxFastScanSub)),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(IndexStore::load(path_), vs::IoError);
    EXPECT_THROW(MmapColdTier{path_}, vs::IoError);

    // nbits (offset 24) must be 4.
    patchU32(path_, 16, static_cast<std::uint32_t>(m_));
    patchU32(path_, 24, 8);
    EXPECT_THROW(IndexStore::inspect(path_), vs::IoError);
}

TEST_F(StoreFixture, RejectsTruncatedFile)
{
    fs::resize_file(path_, fs::file_size(path_) - 100);
    EXPECT_THROW(IndexStore::load(path_), vs::IoError);
    // A cut inside the header is rejected too.
    fs::resize_file(path_, 48);
    EXPECT_THROW(IndexStore::inspect(path_), vs::IoError);
}

TEST_F(StoreFixture, RejectsMissingFile)
{
    EXPECT_THROW(IndexStore::load(path_ + ".nope"), vs::IoError);
}

TEST_F(StoreFixture, MmapParityAcrossCoverageAndShards)
{
    MmapColdTier tier(path_);
    EXPECT_EQ(tier.numClusters(), nlist_);
    EXPECT_EQ(tier.numVectors(), n_);
    for (const double rho : {0.0, 0.25, 1.0}) {
        for (const std::size_t shards : {1u, 2u}) {
            const auto count = static_cast<std::size_t>(
                rho * static_cast<double>(nlist_) + 0.5);
            core::TieredOptions opts;
            opts.numShards = shards;
            opts.coldBackend = &tier;
            core::TieredIndex tiered(*index_, topBySize(count), opts);
            expectServesLikeIndex(tiered, "mmap tiered parity");
        }
    }
}

TEST_F(StoreFixture, MmapParityWithPrefaultAndAdvice)
{
    MmapColdTierOptions mopts;
    mopts.advice = MmapColdTierOptions::Advice::kWillNeed;
    mopts.prefault = true;
    MmapColdTier tier(path_, mopts);
    vs::SearchScratch scratch;
    const auto all = topBySize(nlist_);
    for (std::size_t i = 0; i < 8; ++i) {
        const float *q = queries_.data() + i * d_;
        expectHitsEq(tier.searchClusters(q, k_, all, &scratch),
                     index_->searchClusters(q, k_, all, nullptr,
                                            &scratch),
                     "prefault parity");
    }
}

TEST_F(StoreFixture, StatsReportTheColdBackend)
{
    MmapColdTier tier(path_);
    core::TieredOptions opts;
    opts.coldBackend = &tier;
    core::TieredIndex tiered(*index_, topBySize(8), opts);
    const auto s = tiered.stats();
    EXPECT_EQ(s.coldBackend, "mmap-cold");
    EXPECT_EQ(s.coldBytes, tier.bytes());
    EXPECT_LE(s.coldResidentBytes, s.coldBytes);
    EXPECT_LE(s.coldResidentClusters, nlist_);
}

TEST_F(StoreFixture, ResidencyAccountingIsSane)
{
    MmapColdTier tier(path_);
    EXPECT_GT(tier.bytes(), 0u);
    EXPECT_LE(tier.residentBytes(), tier.bytes());
    EXPECT_LE(tier.residentClusters(), tier.numClusters());
    // Scanning everything faults the segments in; residency may only
    // grow (and on Linux reaches full coverage).
    vs::SearchScratch scratch;
    const auto all = topBySize(nlist_);
    for (std::size_t i = 0; i < nq_; ++i)
        tier.searchClusters(queries_.data() + i * d_, k_, all, &scratch);
    EXPECT_LE(tier.residentBytes(), tier.bytes());
}

TEST_F(StoreFixture, AppendMatchesInMemoryAdd)
{
    MmapColdTier tier(path_);
    tier.append(extra_, nextra_);
    EXPECT_EQ(tier.deltaVectors(), nextra_);
    EXPECT_EQ(tier.numVectors(), n_ + nextra_);

    // The in-memory twin of the same ingestion.
    index_->add(extra_, nextra_);

    vs::SearchScratch scratch;
    const auto all = topBySize(nlist_);
    for (std::size_t i = 0; i < nq_; ++i) {
        const float *q = queries_.data() + i * d_;
        expectHitsEq(tier.searchClusters(q, k_, all, &scratch),
                     index_->searchClusters(q, k_, all, nullptr,
                                            &scratch),
                     "delta parity");
    }

    // Served through a rho = 0 tier, every probe scans the mapped
    // segments and the delta lists with the tier's prepared LUT.
    core::TieredOptions opts;
    opts.coldBackend = &tier;
    core::TieredIndex tiered(*index_, {}, opts);
    expectServesLikeIndex(tiered, "delta tiered parity");
}

TEST_F(StoreFixture, MergeDeltasFoldsIntoTheArtifact)
{
    MmapColdTier tier(path_);
    tier.append(extra_, nextra_);
    tier.mergeDeltas();
    EXPECT_EQ(tier.deltaVectors(), 0u);
    EXPECT_EQ(tier.numVectors(), n_ + nextra_);
    EXPECT_EQ(tier.artifact().total, n_ + nextra_);

    index_->add(extra_, nextra_);

    // Post-merge scans still match, and so does a fresh load of the
    // rewritten artifact (the merge is durable, not just in-memory).
    vs::SearchScratch scratch;
    const auto all = topBySize(nlist_);
    for (std::size_t i = 0; i < nq_; ++i) {
        const float *q = queries_.data() + i * d_;
        const auto expected = index_->searchClusters(q, k_, all,
                                                     nullptr, &scratch);
        expectHitsEq(tier.searchClusters(q, k_, all, &scratch),
                     expected, "post-merge scan");
    }
    const auto reloaded = IndexStore::load(path_);
    EXPECT_EQ(reloaded.size(), n_ + nextra_);
    for (std::size_t i = 0; i < nq_; ++i) {
        const float *q = queries_.data() + i * d_;
        expectHitsEq(reloaded.search(q, k_, nprobe_),
                     index_->search(q, k_, nprobe_), "reloaded merge");
    }
    // Idempotent when no deltas are pending.
    tier.mergeDeltas();
    EXPECT_EQ(tier.numVectors(), n_ + nextra_);
}

TEST_F(StoreFixture, ConcurrentAppendScanAndMergeSmoke)
{
    MmapColdTier tier(path_);
    const auto all = topBySize(nlist_);
    std::thread writer([&] {
        const std::size_t batch = 20;
        for (std::size_t off = 0; off + batch <= nextra_; off += batch) {
            tier.append(
                std::span<const float>(extra_.data() + off * d_,
                                       batch * d_),
                batch);
            if (off % (4 * batch) == 0)
                tier.mergeDeltas();
        }
    });
    vs::SearchScratch scratch;
    for (int pass = 0; pass < 20; ++pass)
        for (std::size_t i = 0; i < 8; ++i) {
            const auto hits = tier.searchClusters(
                queries_.data() + i * d_, k_, all, &scratch);
            EXPECT_LE(hits.size(), k_);
        }
    writer.join();
    tier.mergeDeltas();
    EXPECT_EQ(tier.deltaVectors(), 0u);
    EXPECT_EQ(tier.numVectors(), n_ + (nextra_ / 20) * 20);
}

TEST_F(StoreFixture, FromArtifactEngineServesIdenticalHits)
{
    auto engine = core::EngineBuilder::fromArtifact(path_)
                      .defaultK(k_)
                      .defaultNprobe(nprobe_)
                      .searchThreads(2)
                      .build();
    std::vector<std::future<core::SearchResponse>> futures;
    for (std::size_t i = 0; i < nq_; ++i)
        futures.push_back(engine->submit(
            {.query = std::span<const float>(queries_.data() + i * d_,
                                             d_)}));
    for (std::size_t i = 0; i < nq_; ++i) {
        const auto resp = futures[i].get();
        ASSERT_EQ(resp.disposition, core::Disposition::kServed);
        expectHitsEq(resp.hits,
                     index_->search(queries_.data() + i * d_, k_,
                                    nprobe_),
                     "fromArtifact engine");
    }
}

TEST_F(StoreFixture, BuilderValidatesTheColdTier)
{
    MmapColdTier tier(path_);
    // coldTier() without tieredFromProfile is a composition error.
    EXPECT_THROW(core::EngineBuilder(*index_).coldTier(&tier).build(),
                 std::invalid_argument);

    // A backend serving a different cluster count is rejected.
    Rng rng(11);
    const std::size_t small_nlist = 8;
    const auto small_data = sample(rng, 400, 0.15);
    vs::KMeansParams p;
    p.k = small_nlist;
    const auto km = vs::kmeansTrain(small_data, 400, d_, p);
    auto small_cq = std::make_shared<vs::FlatCoarseQuantizer>(
        km.centroids, small_nlist, d_);
    vs::IvfPqFastScanIndex small(small_cq, m_);
    small.train(small_data, 400);
    small.add(small_data, 400);
    const std::string small_path = path_ + ".small";
    IndexStore::save(small_path, small);
    {
        MmapColdTier mismatched(small_path);
        std::vector<double> counts(nlist_, 1.0), work(nlist_, 1.0),
            bytes(nlist_, 1.0);
        const core::AccessProfile profile(counts, work, bytes);
        EXPECT_THROW(core::EngineBuilder(*index_)
                         .tieredFromProfile(profile, 0.25)
                         .coldTier(&mismatched)
                         .build(),
                     std::invalid_argument);
    }
    fs::remove(small_path);
}

TEST_F(StoreFixture, FromArtifactWithMmapColdTierEndToEnd)
{
    MmapColdTier tier(path_);
    std::vector<double> counts(nlist_), work(nlist_), bytes(nlist_);
    for (std::size_t c = 0; c < nlist_; ++c) {
        counts[c] = static_cast<double>(
            index_->listSize(static_cast<cluster_id_t>(c)));
        work[c] = counts[c];
        bytes[c] = counts[c] * static_cast<double>(m_);
    }
    const core::AccessProfile profile(counts, work, bytes);
    auto engine = core::EngineBuilder::fromArtifact(path_)
                      .tieredFromProfile(profile, 0.25)
                      .coldTier(&tier)
                      .defaultK(k_)
                      .defaultNprobe(nprobe_)
                      .searchThreads(2)
                      .build();
    for (std::size_t i = 0; i < nq_; ++i) {
        const auto resp =
            engine
                ->submit({.query = std::span<const float>(
                              queries_.data() + i * d_, d_)})
                .get();
        ASSERT_EQ(resp.disposition, core::Disposition::kServed);
        expectHitsEq(resp.hits,
                     index_->search(queries_.data() + i * d_, k_,
                                    nprobe_),
                     "cold-start tiered engine");
    }
}

} // namespace
} // namespace vlr::storage
