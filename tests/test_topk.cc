/**
 * @file
 * Tests for bounded top-k selection.
 */

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vecsearch/topk.h"

namespace vlr::vs
{
namespace
{

TEST(TopK, KeepsKSmallest)
{
    TopK t(3);
    for (float d : {5.f, 1.f, 4.f, 2.f, 3.f})
        t.push(static_cast<idx_t>(d * 10), d);
    const auto hits = t.sortedHits();
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_FLOAT_EQ(hits[0].dist, 1.f);
    EXPECT_FLOAT_EQ(hits[1].dist, 2.f);
    EXPECT_FLOAT_EQ(hits[2].dist, 3.f);
}

TEST(TopK, FewerThanKItems)
{
    TopK t(10);
    t.push(1, 0.5f);
    t.push(2, 0.1f);
    const auto hits = t.sortedHits();
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].id, 2);
    EXPECT_EQ(hits[1].id, 1);
}

TEST(TopK, WorstIsInfUntilFull)
{
    TopK t(2);
    EXPECT_GT(t.worst(), 1e30f);
    t.push(1, 1.f);
    EXPECT_GT(t.worst(), 1e30f);
    t.push(2, 2.f);
    EXPECT_FLOAT_EQ(t.worst(), 2.f);
}

TEST(TopK, WorstTracksKthBest)
{
    TopK t(2);
    t.push(1, 5.f);
    t.push(2, 3.f);
    EXPECT_FLOAT_EQ(t.worst(), 5.f);
    t.push(3, 1.f); // evicts 5
    EXPECT_FLOAT_EQ(t.worst(), 3.f);
}

TEST(TopK, RejectsWorseThanWorst)
{
    TopK t(2);
    t.push(1, 1.f);
    t.push(2, 2.f);
    t.push(3, 9.f); // rejected
    const auto hits = t.sortedHits();
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].id, 1);
    EXPECT_EQ(hits[1].id, 2);
}

TEST(TopK, SortedHitsBreakTiesById)
{
    TopK t(3);
    t.push(7, 1.f);
    t.push(3, 1.f);
    t.push(5, 1.f);
    const auto hits = t.sortedHits();
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0].id, 3);
    EXPECT_EQ(hits[1].id, 5);
    EXPECT_EQ(hits[2].id, 7);
}

TEST(TopK, CapacityAndSizeAccessors)
{
    TopK t(4);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.full());
    for (int i = 0; i < 4; ++i)
        t.push(i, static_cast<float>(i));
    EXPECT_TRUE(t.full());
    EXPECT_EQ(t.size(), 4u);
}

TEST(TopK, AgreesWithFullSort)
{
    // Ids arrive shuffled. With ties, four distinct distances leave the
    // id to order almost every sift-down step.
    Rng rng(42);
    const std::size_t n = 1000;
    for (const bool ties : {false, true}) {
        for (const std::size_t k : {1ul, 2ul, 3ul, 25ul, 31ul, 32ul, 33ul}) {
            std::vector<idx_t> ids(n);
            std::iota(ids.begin(), ids.end(), idx_t{0});
            rng.shuffle(ids);
            std::vector<SearchHit> all(n);
            TopK t(k);
            for (std::size_t i = 0; i < n; ++i) {
                const float d =
                    ties ? static_cast<float>(rng.uniformU64(4))
                         : static_cast<float>(rng.uniform());
                all[i] = {ids[i], d};
                t.push(ids[i], d);
            }
            std::sort(all.begin(), all.end(),
                      [](const auto &a, const auto &b) {
                          return a.dist != b.dist ? a.dist < b.dist
                                                  : a.id < b.id;
                      });
            const auto hits = t.sortedHits();
            ASSERT_EQ(hits.size(), k);
            for (std::size_t i = 0; i < k; ++i)
                EXPECT_EQ(hits[i], all[i])
                    << "ties " << ties << " k " << k << " rank " << i;
        }
    }
}

TEST(TopK, WorstIdIsTheLastHitUnderTheTieOrder)
{
    TopK t(2);
    EXPECT_EQ(t.worstId(), kInvalidIdx);
    t.push(7, 1.f);
    t.push(3, 1.f);
    EXPECT_EQ(t.worstId(), 7);
    EXPECT_TRUE(t.accepts(4, 1.f));
    EXPECT_FALSE(t.accepts(8, 1.f));
    EXPECT_TRUE(t.accepts(9, 0.5f));
    t.push(5, 1.f);
    EXPECT_EQ(t.worstId(), 5);
    EXPECT_FLOAT_EQ(t.worst(), 1.f);
}

TEST(TopK, AcceptsIsExactlyWhatPushKeeps)
{
    // A small distance domain makes most pushes tie the k-th best.
    Rng rng(9);
    for (const std::size_t k : {1ul, 3ul, 10ul}) {
        TopK t(k);
        for (std::size_t i = 0; i < 400; ++i) {
            const auto id = static_cast<idx_t>(rng.uniformU64(1000));
            const auto d = static_cast<float>(rng.uniformU64(4));
            const bool accepted = t.accepts(id, d);
            const auto before = t.sortedHits();
            t.push(id, d);
            EXPECT_EQ(accepted, t.sortedHits() != before)
                << "k " << k << " push " << i;
        }
    }
}

TEST(TopK, ZeroCapacityKeepsNothing)
{
    TopK t(0);
    EXPECT_TRUE(t.full());
    EXPECT_EQ(t.capacity(), 0u);
    EXPECT_FALSE(t.accepts(1, -1e30f));
    t.push(1, 0.f);
    t.push(2, -1e30f);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.worst(), -std::numeric_limits<float>::infinity());
    EXPECT_EQ(t.worstId(), kInvalidIdx);
    EXPECT_TRUE(t.sortedHits().empty());
}

} // namespace
} // namespace vlr::vs
