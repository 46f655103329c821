/**
 * @file
 * Tests for the flat (exact) index, the exact-search reference the
 * IVF-PQ recall tests compare against.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/threadpool.h"
#include "vecsearch/flat_index.h"
#include "vecsearch/metric.h"

namespace vlr::vs
{
namespace
{

std::vector<float>
gaussianData(Rng &rng, std::size_t n, std::size_t d)
{
    std::vector<float> data(n * d);
    for (auto &x : data)
        x = static_cast<float>(rng.gaussian());
    return data;
}

TEST(FlatIndex, FindsExactNearest)
{
    Rng rng(1);
    const std::size_t n = 500, d = 12;
    const auto data = gaussianData(rng, n, d);
    FlatIndex index(d);
    index.add(data, n);
    EXPECT_EQ(index.size(), n);

    const auto q = gaussianData(rng, 1, d);
    const auto hits = index.search(q.data(), 5);
    ASSERT_EQ(hits.size(), 5u);

    // Manual exhaustive check.
    std::vector<SearchHit> manual(n);
    for (std::size_t i = 0; i < n; ++i)
        manual[i] = {static_cast<idx_t>(i),
                     l2Sqr(q.data(), data.data() + i * d, d)};
    std::sort(manual.begin(), manual.end(),
              [](const auto &a, const auto &b) {
                  return a.dist != b.dist ? a.dist < b.dist
                                          : a.id < b.id;
              });
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(hits[i].id, manual[i].id) << "rank " << i;
}

TEST(FlatIndex, SelfQueryReturnsSelfFirst)
{
    Rng rng(2);
    const auto data = gaussianData(rng, 100, 8);
    FlatIndex index(8);
    index.add(data, 100);
    const auto hits = index.search(data.data() + 37 * 8, 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, 37);
    EXPECT_FLOAT_EQ(hits[0].dist, 0.f);
}

TEST(FlatIndex, BatchMatchesSingle)
{
    Rng rng(3);
    const auto data = gaussianData(rng, 300, 8);
    FlatIndex index(8);
    index.add(data, 300);
    const auto queries = gaussianData(rng, 10, 8);
    const auto batch = index.searchBatch(queries, 10, 3);
    ASSERT_EQ(batch.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        const auto single = index.search(queries.data() + i * 8, 3);
        ASSERT_EQ(batch[i].size(), single.size());
        for (std::size_t j = 0; j < single.size(); ++j)
            EXPECT_EQ(batch[i][j], single[j]);
    }
}

TEST(FlatIndex, BatchParallelMatchesSerial)
{
    Rng rng(4);
    const auto data = gaussianData(rng, 400, 8);
    FlatIndex index(8);
    index.add(data, 400);
    const auto queries = gaussianData(rng, 16, 8);
    ThreadPool pool(4);
    const auto serial = index.searchBatch(queries, 16, 4);
    const auto parallel = index.searchBatch(queries, 16, 4, &pool);
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_EQ(serial[i][j], parallel[i][j]);
}

TEST(FlatIndex, IncrementalAddAssignsSequentialIds)
{
    Rng rng(5);
    const auto a = gaussianData(rng, 10, 4);
    const auto b = gaussianData(rng, 10, 4);
    FlatIndex index(4);
    index.add(a, 10);
    index.add(b, 10);
    EXPECT_EQ(index.size(), 20u);
    // Vector 15 must be b[5].
    const float *v = index.vectorData(15);
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_FLOAT_EQ(v[j], b[5 * 4 + j]);
}

TEST(FlatIndex, InnerProductMetricOrdersDescending)
{
    FlatIndex index(2, Metric::InnerProduct);
    const float data[] = {1.f, 0.f, 10.f, 0.f, 5.f, 0.f};
    index.add(std::span<const float>(data, 6), 3);
    const float q[] = {1.f, 0.f};
    const auto hits = index.search(q, 3);
    // Larger dot product first.
    EXPECT_EQ(hits[0].id, 1);
    EXPECT_EQ(hits[1].id, 2);
    EXPECT_EQ(hits[2].id, 0);
}

} // namespace
} // namespace vlr::vs
