/**
 * @file
 * Index splitter (paper Section IV-A4): selects the hot clusters for a
 * target coverage, distributes them to GPU shards round-robin in
 * descending size order (balancing shard memory), and emits the mapping
 * table the router uses — original cluster id -> shard.
 */

#ifndef VLR_CORE_SPLITTER_H
#define VLR_CORE_SPLITTER_H

#include <functional>
#include <vector>

#include "core/access_profile.h"

namespace vlr::core
{

/** Placement of hot clusters across GPU shards plus its mapping table. */
struct ShardAssignment
{
    double rho = 0.0;
    /** Clusters resident on each shard. */
    std::vector<std::vector<cluster_id_t>> shardClusters;
    /** cluster id -> shard id, kCpuShard for CPU-resident clusters. */
    std::vector<shard_id_t> clusterShard;
    /** Paper-scale bytes per shard. */
    std::vector<double> shardBytes;

    std::size_t numShards() const { return shardClusters.size(); }

    bool
    isGpuResident(cluster_id_t c) const
    {
        return clusterShard[static_cast<std::size_t>(c)] != kCpuShard;
    }

    double totalGpuBytes() const;
    /** Largest shard footprint (the memory the placement must fit). */
    double maxShardBytes() const;
};

class IndexSplitter
{
  public:
    /**
     * Split the top-rho clusters of the profile across num_shards GPU
     * shards: sorted by size descending, dealt round-robin.
     * @pre num_shards >= 1 unless rho == 0.
     */
    static ShardAssignment split(const AccessProfile &profile, double rho,
                                 int num_shards);

    /**
     * Deal an explicit cluster set across num_shards with the size-
     * balanced policy (descending bytes_of, ties by id, round-robin)
     * and build the mapping table. This is the single placement
     * policy: split() applies it to profile bytes, the tiered runtime
     * to real list bytes.
     * @param clusters hot set to place (distinct ids in [0, nlist)).
     * @param bytes_of per-cluster footprint used for balancing; called
     *        only for ids in range.
     * @param nlist total clusters (sizes the mapping table).
     * @param rho coverage recorded on the assignment.
     * @param num_shards shards to deal across (clamped to >= 1).
     * @throws std::invalid_argument on an id outside [0, nlist) or a
     *         repeated id.
     */
    static ShardAssignment dealClusters(
        std::vector<cluster_id_t> clusters,
        const std::function<double(cluster_id_t)> &bytes_of,
        std::size_t nlist, double rho, int num_shards);

    /**
     * Uniform sharding by cluster id (Faiss IndexIVFShards semantics):
     * every cluster is GPU-resident, dealt round-robin by id, ignoring
     * access frequency. Used by the ALL-GPU and HedraRAG baselines.
     * With rho < 1 only the hot fraction is sharded but still by id
     * order (HedraRAG's cache without size balancing).
     */
    static ShardAssignment splitUniform(const AccessProfile &profile,
                                        double rho, int num_shards);
};

} // namespace vlr::core

#endif // VLR_CORE_SPLITTER_H
