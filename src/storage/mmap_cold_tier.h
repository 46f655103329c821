/**
 * @file
 * Memory-mapped cold-tier backend over an IndexStore artifact.
 *
 * The paper's tiered design keeps hot clusters in fast replicas and
 * serves the long tail from slower storage. MmapColdTier is that slow
 * path taken beyond RAM: it mmap()s an artifact file and scans each
 * probed cluster's packed segment directly out of the mapping, so the
 * kernel's page cache — not the process heap — decides how much of the
 * cold tier is resident. Per-cluster segments are page-aligned, letting
 * the tier madvise() the access pattern and report per-cluster
 * residency from mincore().
 *
 * Parity: the mapped bytes are exactly the bytes savePackedLists wrote
 * from the source index, and the scan kernel tolerates any alignment,
 * so distances are bit-identical to the in-memory index the artifact
 * was saved from — MmapColdTier honours the HotShardBackend parity
 * contract and can also stand in as a (slow) shard backend in tests.
 *
 * Streaming ingestion: append() encodes new vectors into per-cluster
 * append-only delta lists held in RAM and visible to scans immediately;
 * mergeDeltas() folds them into a rewritten artifact (temp file +
 * atomic rename) and remaps; whoever owns the tier calls it on its own
 * maintenance schedule. Scans never block on a merge except for two
 * brief pointer swaps.
 *
 * Gap: behind a TieredIndex this tier serves only the cold probes, and
 * hot shards view the in-memory source index, which append() and
 * mergeDeltas() never touch. So a vector that append() adds to a hot
 * cluster is not served while that cluster stays hot; it becomes
 * visible once a repartition sends the cluster cold.
 */

#ifndef VLR_STORAGE_MMAP_COLD_TIER_H
#define VLR_STORAGE_MMAP_COLD_TIER_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/shard_backend.h"
#include "storage/index_store.h"
#include "vecsearch/io.h"

namespace vlr::storage
{

/** Construction options for MmapColdTier. */
struct MmapColdTierOptions
{
    /** Page-cache advice applied to the mapped lists section. */
    enum class Advice
    {
        kNormal,     ///< kernel default readahead
        kRandom,     ///< POSIX_MADV_RANDOM — probe-driven access (default)
        kSequential, ///< POSIX_MADV_SEQUENTIAL
        kWillNeed    ///< POSIX_MADV_WILLNEED — eager readahead
    };

    Advice advice = Advice::kRandom;
    /** Pre-fault the whole mapping at open (MAP_POPULATE). */
    bool prefault = false;
};

/**
 * Cold-tier search backend serving packed inverted lists from a
 * memory-mapped IndexStore artifact, with in-RAM delta lists for
 * streaming ingestion.
 *
 * Thread safety: scanClusters(), searchClusters(), append(),
 * mergeDeltas() and every stats accessor may be called concurrently
 * from any threads. Scans take a shared lock for their whole duration;
 * append() and the two state swaps inside mergeDeltas() take the
 * exclusive side briefly. Merges are serialized among themselves. The
 * artifact file must not be modified externally while the tier is
 * open.
 */
class MmapColdTier : public core::HotShardBackend
{
  public:
    /**
     * Map the artifact at @p path. @throws vs::IoError if the file is
     * missing, malformed, truncated, or cannot be mapped.
     */
    explicit MmapColdTier(const std::string &path,
                          const MmapColdTierOptions &opts = {});
    ~MmapColdTier() override;

    MmapColdTier(const MmapColdTier &) = delete;
    MmapColdTier &operator=(const MmapColdTier &) = delete;

    /**
     * Scan the mapped segment and the delta lists of each of
     * @p clusters into @p topk with the caller's LUT, which must come
     * from the PQ the artifact was saved with.
     */
    void scanClusters(const float *query, const vs::QuantizedLut &qlut,
                      std::span<const cluster_id_t> clusters,
                      vs::SearchScratch &scratch,
                      vs::TopK &topk) const override;

    /**
     * Standalone search: build the query's LUT from the artifact's PQ,
     * scanClusters() into a fresh TopK of @p k, return its hits sorted
     * by (dist, id).
     */
    std::vector<vs::SearchHit> searchClusters(
        const float *query, std::size_t k,
        std::span<const cluster_id_t> clusters,
        vs::SearchScratch *scratch) const;

    /** Bytes served: mapped list segments + in-RAM delta lists. */
    std::size_t bytes() const override;
    std::size_t numClusters() const override;
    /** Base vectors in the mapping + unmerged delta vectors. */
    std::size_t numVectors() const;
    std::string name() const override { return "mmap-cold"; }

    /**
     * RAM-resident bytes right now: mincore() over the mapped list
     * segments plus all delta bytes (deltas always live in RAM).
     */
    std::size_t residentBytes() const override;
    /** Clusters whose mapped segment is fully resident (plus deltas). */
    std::size_t residentClusters() const override;

    /**
     * Encode and ingest @p n vectors into the per-cluster delta lists.
     * Cluster assignment and ids match what IvfPqFastScanIndex::add on
     * the equivalent in-memory index would produce (ids continue the
     * artifact's numbering), and the vectors are visible to scans as
     * soon as the call returns.
     */
    void append(std::span<const float> vecs, std::size_t n);

    /**
     * Fold all delta lists into the artifact: rewrite it via a temp
     * file + atomic rename, then remap. No-op when no deltas are
     * pending. @throws vs::IoError if the rewrite fails — pending
     * deltas are retained and retried by the next merge.
     */
    void mergeDeltas();

    /** Header of the currently-mapped artifact. */
    ArtifactInfo artifact() const;
    /** Vectors ingested but not yet merged. */
    std::size_t deltaVectors() const;
    /** Path of the backing artifact file. */
    const std::string &path() const { return path_; }

  private:
    struct Mapping;

    /** Per-cluster in-RAM delta list. */
    struct ClusterDelta
    {
        std::vector<idx_t> ids;
        /** Fast-scan blocks (scanned alongside the mapped segment). */
        std::vector<std::uint8_t> packed;
        /** Plain codes, m bytes per vector (merge replay). */
        std::vector<std::uint8_t> rawCodes;
    };

    /** One generation of delta lists. */
    struct DeltaSet
    {
        std::vector<ClusterDelta> clusters;
        std::size_t count = 0;
        std::size_t bytes = 0;
    };

    /** Delegation target: adopts a mapping opened by openMapping(). */
    MmapColdTier(std::string path, const MmapColdTierOptions &opts,
                 std::unique_ptr<Mapping> map);

    static std::unique_ptr<Mapping> openMapping(
        const std::string &path, const MmapColdTierOptions &opts);
    static void appendDeltas(DeltaSet &into, DeltaSet &&from,
                             std::size_t m);

    const std::string path_;
    const MmapColdTierOptions opts_;

    /** Trained parameters, loaded once (merges never change them). */
    vs::ProductQuantizer pq_;
    std::shared_ptr<const vs::FlatCoarseQuantizer> cq_;

    /** Guards map_, active_, sealed_ and nextId_. */
    mutable std::shared_mutex stateMutex_;
    std::unique_ptr<Mapping> map_;
    /** Deltas accepting new appends. */
    std::unique_ptr<DeltaSet> active_;
    /** Deltas frozen by an in-flight (or failed) merge. */
    std::unique_ptr<DeltaSet> sealed_;
    idx_t nextId_ = 0;

    /** Serializes mergeDeltas() calls. */
    std::mutex mergeMutex_;
};

} // namespace vlr::storage

#endif // VLR_STORAGE_MMAP_COLD_TIER_H
