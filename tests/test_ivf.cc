/**
 * @file
 * Tests for the flat coarse quantizer.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vecsearch/ivf.h"

namespace vlr::vs
{
namespace
{

TEST(FlatCq, ProbeOrderIsByDistance)
{
    Rng rng(9);
    const std::size_t nlist = 64, d = 6;
    std::vector<float> centroids(nlist * d);
    for (auto &x : centroids)
        x = static_cast<float>(rng.gaussian());
    FlatCoarseQuantizer cq(centroids, nlist, d);

    std::vector<float> q(d);
    for (auto &x : q)
        x = static_cast<float>(rng.gaussian());
    const auto probes = cq.probe(q.data(), nlist);
    ASSERT_EQ(probes.clusters.size(), nlist);
    for (std::size_t i = 1; i < nlist; ++i)
        EXPECT_GE(probes.dists[i], probes.dists[i - 1]);
    // All clusters appear exactly once.
    std::set<cluster_id_t> seen(probes.clusters.begin(),
                                probes.clusters.end());
    EXPECT_EQ(seen.size(), nlist);
}

TEST(FlatCq, NprobeClampsToNlist)
{
    Rng rng(10);
    std::vector<float> centroids(8 * 4);
    for (auto &x : centroids)
        x = static_cast<float>(rng.gaussian());
    FlatCoarseQuantizer cq(centroids, 8, 4);
    std::vector<float> q(4, 0.f);
    const auto probes = cq.probe(q.data(), 100);
    EXPECT_EQ(probes.clusters.size(), 8u);
}

std::vector<float>
gaussianVector(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian());
    return v;
}

/**
 * The probe without its seeding and bound filter: every centroid pushed
 * into a TopK in index order.
 */
ProbeList
referenceProbe(const std::vector<float> &centroids, std::size_t nlist,
               std::size_t d, Metric metric, const float *q,
               std::size_t nprobe)
{
    TopK topk(std::min(nprobe, nlist));
    for (std::size_t c = 0; c < nlist; ++c)
        topk.push(static_cast<idx_t>(c),
                  comparableDistance(metric, q, centroids.data() + c * d,
                                     d));
    ProbeList out;
    for (const auto &h : topk.sortedHits()) {
        out.clusters.push_back(static_cast<cluster_id_t>(h.id));
        out.dists.push_back(h.dist);
    }
    return out;
}

/** probe() equals referenceProbe: clusters, and dists bit for bit. */
void
expectReferenceProbe(const std::vector<float> &centroids, std::size_t nlist,
                     std::size_t d, Metric metric, const float *q,
                     std::size_t nprobe)
{
    const FlatCoarseQuantizer cq(centroids, nlist, d, metric);
    const auto got = cq.probe(q, nprobe);
    const auto want = referenceProbe(centroids, nlist, d, metric, q, nprobe);
    const auto where = "nlist " + std::to_string(nlist) + " nprobe " +
                       std::to_string(nprobe) + " metric " +
                       std::to_string(static_cast<int>(metric));
    ASSERT_EQ(got.clusters, want.clusters) << where;
    ASSERT_EQ(got.dists.size(), want.dists.size()) << where;
    for (std::size_t i = 0; i < got.dists.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got.dists[i]),
                  std::bit_cast<std::uint32_t>(want.dists[i]))
            << where << " rank " << i;
}

/** nprobe values around the group width and the nlist bounds. */
std::vector<std::size_t>
nprobeSweep(std::size_t nlist)
{
    return {0, 1, 2, 15, 16, 17, 32, nlist - 1, nlist, nlist + 3};
}

TEST(FlatCq, ProbeMatchesPushingEveryCentroid)
{
    Rng rng(11);
    for (const std::size_t nlist : {1, 7, 15, 16, 17, 31, 33, 100, 1000}) {
        // d 8 scores four rows per pass, d 5 one row with a tail.
        for (const std::size_t d : {8, 5}) {
            const auto centroids = gaussianVector(rng, nlist * d);
            const auto q = gaussianVector(rng, d);
            for (const Metric metric : {Metric::L2, Metric::InnerProduct})
                for (const std::size_t nprobe : nprobeSweep(nlist))
                    expectReferenceProbe(centroids, nlist, d, metric,
                                         q.data(), nprobe);
        }
    }
}

TEST(FlatCq, TiedCentroidsResolveToTheLowerId)
{
    // Five distinct centroids repeated in shuffled order: almost every
    // distance ties another, and ties must keep the lower ids.
    Rng rng(12);
    const std::size_t d = 8;
    const auto distinct = gaussianVector(rng, 5 * d);
    for (const std::size_t nlist : {17, 100, 1000}) {
        std::vector<std::size_t> pick(nlist);
        for (std::size_t c = 0; c < nlist; ++c)
            pick[c] = c % 5;
        rng.shuffle(pick);
        std::vector<float> centroids(nlist * d);
        for (std::size_t c = 0; c < nlist; ++c)
            std::copy_n(distinct.begin() + pick[c] * d, d,
                        centroids.begin() + c * d);
        const auto q = gaussianVector(rng, d);
        for (const Metric metric : {Metric::L2, Metric::InnerProduct})
            for (const std::size_t nprobe : nprobeSweep(nlist))
                expectReferenceProbe(centroids, nlist, d, metric, q.data(),
                                     nprobe);
    }
}

TEST(FlatCq, InfiniteDistancesStillFillTheProbe)
{
    // Until the top-k is full its worst() is float max, which an +inf
    // distance does not pass: every centroid must still be offered.
    Rng rng(13);
    const std::size_t d = 8;
    for (const std::size_t nlist : {16, 33, 40, 100}) {
        for (const std::size_t ninf : {1, 3}) {
            auto centroids = gaussianVector(rng, nlist * d);
            // (q - 1e30)^2 overflows to +inf.
            for (std::size_t j = 0; j < ninf; ++j)
                centroids[(nlist - 1 - 7 * j) * d] = 1e30f;
            const auto q = gaussianVector(rng, d);
            std::vector<std::size_t> nprobes = nprobeSweep(nlist);
            nprobes.push_back(nlist - ninf);
            nprobes.push_back(nlist - ninf + 1);
            for (const std::size_t nprobe : nprobes)
                expectReferenceProbe(centroids, nlist, d, Metric::L2,
                                     q.data(), nprobe);
            const FlatCoarseQuantizer cq(centroids, nlist, d);
            EXPECT_EQ(cq.probe(q.data(), nlist).dists.back(),
                      std::numeric_limits<float>::infinity());
        }
    }
}

TEST(FlatCq, NanCentroidStillReturnsDistinctClusters)
{
    // NaN leaves hitLess short of a strict weak order, so the kept set
    // may differ from the reference; its size and distinctness may not.
    Rng rng(14);
    for (const std::size_t d : {8, 5}) {
        for (const std::size_t nlist : {16, 17, 100, 1000}) {
            for (const std::size_t nan_at : {std::size_t{0}, nlist / 2}) {
                auto centroids = gaussianVector(rng, nlist * d);
                centroids[nan_at * d] =
                    std::numeric_limits<float>::quiet_NaN();
                const FlatCoarseQuantizer cq(centroids, nlist, d);
                const auto q = gaussianVector(rng, d);
                for (const std::size_t nprobe : nprobeSweep(nlist)) {
                    const auto pl = cq.probe(q.data(), nprobe);
                    ASSERT_EQ(pl.clusters.size(), std::min(nprobe, nlist))
                        << "nlist " << nlist << " nprobe " << nprobe;
                    const std::set<cluster_id_t> seen(pl.clusters.begin(),
                                                      pl.clusters.end());
                    EXPECT_EQ(seen.size(), pl.clusters.size());
                    for (const cluster_id_t c : pl.clusters)
                        EXPECT_LT(static_cast<std::size_t>(c), nlist);
                }
            }
        }
    }
}

} // namespace
} // namespace vlr::vs
