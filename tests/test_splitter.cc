/**
 * @file
 * Tests for the index splitter: hot-cluster selection, round-robin
 * shard balancing and mapping tables (Section IV-A4).
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/splitter.h"

namespace vlr::core
{
namespace
{

AccessProfile
profile8()
{
    // 8 clusters; accesses descending with cluster id for simplicity.
    // sizes vary so round-robin balancing is observable.
    return AccessProfile({80, 70, 60, 50, 40, 30, 20, 10},
                         {100, 900, 300, 700, 500, 200, 400, 600},
                         {1000, 9000, 3000, 7000, 5000, 2000, 4000,
                          6000});
}

TEST(Splitter, SelectsHotClusters)
{
    const auto p = profile8();
    const auto a = IndexSplitter::split(p, 0.5, 2);
    // Top-4 hot clusters are ids 0..3.
    std::set<cluster_id_t> resident;
    for (const auto &shard : a.shardClusters)
        for (const auto c : shard)
            resident.insert(c);
    EXPECT_EQ(resident, (std::set<cluster_id_t>{0, 1, 2, 3}));
    EXPECT_EQ(a.numShards(), 2u);
    EXPECT_DOUBLE_EQ(a.rho, 0.5);
}

TEST(Splitter, MappingTablesAreConsistent)
{
    const auto p = profile8();
    const auto a = IndexSplitter::split(p, 0.5, 3);
    ASSERT_EQ(a.clusterShard.size(), 8u);
    for (cluster_id_t c = 0; c < 8; ++c) {
        const auto s = a.clusterShard[c];
        if (s == kCpuShard) {
            EXPECT_FALSE(a.isGpuResident(c));
        } else {
            ASSERT_GE(s, 0);
            ASSERT_LT(static_cast<std::size_t>(s), a.numShards());
            const auto &list = a.shardClusters[s];
            EXPECT_EQ(std::count(list.begin(), list.end(), c), 1);
            EXPECT_TRUE(a.isGpuResident(c));
        }
    }
}

TEST(Splitter, RoundRobinBalancesBytes)
{
    const auto p = profile8();
    const auto a = IndexSplitter::split(p, 1.0, 2);
    ASSERT_EQ(a.shardBytes.size(), 2u);
    const double total = a.shardBytes[0] + a.shardBytes[1];
    EXPECT_NEAR(total, p.totalBytes(), 1e-9);
    // Size-descending round-robin keeps shards within ~the largest
    // cluster of each other.
    EXPECT_LT(std::abs(a.shardBytes[0] - a.shardBytes[1]), 9000.0);
    EXPECT_NEAR(a.totalGpuBytes(), total, 1e-9);
    EXPECT_GE(a.maxShardBytes(),
              std::max(a.shardBytes[0], a.shardBytes[1]) - 1e-9);
}

TEST(Splitter, ZeroCoverageLeavesEverythingOnCpu)
{
    const auto p = profile8();
    const auto a = IndexSplitter::split(p, 0.0, 4);
    for (cluster_id_t c = 0; c < 8; ++c)
        EXPECT_EQ(a.clusterShard[c], kCpuShard);
    EXPECT_NEAR(a.totalGpuBytes(), 0.0, 1e-12);
}

TEST(Splitter, SingleShardHoldsAllHotClusters)
{
    const auto p = profile8();
    const auto a = IndexSplitter::split(p, 0.75, 1);
    EXPECT_EQ(a.numShards(), 1u);
    EXPECT_EQ(a.shardClusters[0].size(), 6u);
}

TEST(Splitter, UniformShardingIgnoresAccessFrequency)
{
    const auto p = profile8();
    const auto a = IndexSplitter::splitUniform(p, 1.0, 2);
    // Round-robin by id: even ids on shard 0, odd on shard 1.
    for (cluster_id_t c = 0; c < 8; ++c) {
        EXPECT_EQ(a.clusterShard[c], c % 2) << "cluster " << c;
    }
}

TEST(Splitter, UniformPartialCoverageUsesIdOrderOfHotSet)
{
    const auto p = profile8();
    const auto a = IndexSplitter::splitUniform(p, 0.5, 2);
    std::size_t resident = 0;
    for (cluster_id_t c = 0; c < 8; ++c)
        resident += a.isGpuResident(c);
    EXPECT_EQ(resident, 4u);
}

TEST(Splitter, ShardBytesMatchClusterBytes)
{
    const auto p = profile8();
    const auto a = IndexSplitter::split(p, 1.0, 3);
    for (std::size_t s = 0; s < 3; ++s) {
        double sum = 0.0;
        for (const auto c : a.shardClusters[s])
            sum += p.clusterBytes(c);
        EXPECT_NEAR(a.shardBytes[s], sum, 1e-9);
    }
}

TEST(Splitter, MoreShardsReduceMaxShardBytes)
{
    const auto p = profile8();
    const auto two = IndexSplitter::split(p, 1.0, 2);
    const auto four = IndexSplitter::split(p, 1.0, 4);
    EXPECT_LE(four.maxShardBytes(), two.maxShardBytes() + 1e-9);
}

} // namespace
} // namespace vlr::core
