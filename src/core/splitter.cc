#include "core/splitter.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/log.h"

namespace vlr::core
{

double
ShardAssignment::totalGpuBytes() const
{
    double acc = 0.0;
    for (const double b : shardBytes)
        acc += b;
    return acc;
}

double
ShardAssignment::maxShardBytes() const
{
    double mx = 0.0;
    for (const double b : shardBytes)
        mx = std::max(mx, b);
    return mx;
}

namespace
{

ShardAssignment
makeEmpty(const AccessProfile &profile, double rho, int num_shards)
{
    ShardAssignment a;
    a.rho = rho;
    a.shardClusters.resize(static_cast<std::size_t>(num_shards));
    a.shardBytes.assign(static_cast<std::size_t>(num_shards), 0.0);
    a.clusterShard.assign(profile.nlist(), kCpuShard);
    return a;
}

void
place(ShardAssignment &a, const AccessProfile &profile, cluster_id_t c,
      std::size_t shard)
{
    a.shardClusters[shard].push_back(c);
    a.clusterShard[static_cast<std::size_t>(c)] =
        static_cast<shard_id_t>(shard);
    a.shardBytes[shard] += profile.clusterBytes(c);
}

} // namespace

ShardAssignment
IndexSplitter::split(const AccessProfile &profile, double rho,
                     int num_shards)
{
    if (rho > 0.0 && num_shards < 1)
        fatal("IndexSplitter::split: need at least one shard");
    return dealClusters(
        profile.hotClusters(rho),
        [&profile](cluster_id_t c) { return profile.clusterBytes(c); },
        profile.nlist(), rho, num_shards);
}

ShardAssignment
IndexSplitter::dealClusters(
    std::vector<cluster_id_t> clusters,
    const std::function<double(cluster_id_t)> &bytes_of,
    std::size_t nlist, double rho, int num_shards)
{
    num_shards = std::max(num_shards, 1);
    ShardAssignment a;
    a.rho = rho;
    a.shardClusters.resize(static_cast<std::size_t>(num_shards));
    a.shardBytes.assign(static_cast<std::size_t>(num_shards), 0.0);
    a.clusterShard.assign(nlist, kCpuShard);
    // bytes_of indexes per-cluster tables, so check ids before sorting.
    for (const cluster_id_t c : clusters)
        if (c < 0 || static_cast<std::size_t>(c) >= nlist)
            throw std::invalid_argument(
                "IndexSplitter::dealClusters: cluster id " +
                std::to_string(c) + " is outside [0, " +
                std::to_string(nlist) + ")");

    // Sort clusters by footprint descending; round-robin dealing of a
    // descending sequence keeps shard footprints balanced.
    std::sort(clusters.begin(), clusters.end(),
              [&bytes_of](cluster_id_t x, cluster_id_t y) {
                  const double bx = bytes_of(x);
                  const double by = bytes_of(y);
                  if (bx != by)
                      return bx > by;
                  return x < y;
              });
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        const cluster_id_t c = clusters[i];
        if (a.clusterShard[static_cast<std::size_t>(c)] != kCpuShard)
            throw std::invalid_argument(
                "IndexSplitter::dealClusters: cluster id " +
                std::to_string(c) + " is placed twice");
        const std::size_t shard =
            i % static_cast<std::size_t>(num_shards);
        a.clusterShard[static_cast<std::size_t>(c)] =
            static_cast<shard_id_t>(shard);
        a.shardClusters[shard].push_back(c);
        a.shardBytes[shard] += bytes_of(c);
    }
    return a;
}

ShardAssignment
IndexSplitter::splitUniform(const AccessProfile &profile, double rho,
                            int num_shards)
{
    if (rho > 0.0 && num_shards < 1)
        fatal("IndexSplitter::splitUniform: need at least one shard");
    num_shards = std::max(num_shards, 1);
    ShardAssignment a = makeEmpty(profile, rho, num_shards);

    const auto hot = profile.hotClusters(rho);
    // Id-ordered dealing, ignoring sizes and access counts.
    std::vector<cluster_id_t> by_id(hot.begin(), hot.end());
    std::sort(by_id.begin(), by_id.end());
    for (std::size_t i = 0; i < by_id.size(); ++i)
        place(a, profile, by_id[i],
              i % static_cast<std::size_t>(num_shards));
    return a;
}

} // namespace vlr::core
