/**
 * @file
 * Pluggable per-shard hot-tier backends.
 *
 * The tiered runtime's hot tier is N shards, each behind a
 * HotShardBackend: an abstract per-shard search/bytes/build API that
 * decouples TieredIndex from the concrete storage serving a shard. The
 * default FastScanShardBackend is a view of the shard's clusters in the
 * source index: it copies no list and scans the source's own lists, so
 * its distances are the source's by construction. ThrottledShardBackend
 * wraps any backend with a fixed per-scan delay to model a slower
 * device in tests and benches. A real accelerator index slots in behind
 * the same interface without touching the tiering, routing or update
 * layers — this is the seam the ROADMAP's "real-device hot tier" item
 * plugs into.
 */

#ifndef VLR_CORE_SHARD_BACKEND_H
#define VLR_CORE_SHARD_BACKEND_H

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vecsearch/ivf_pq_fastscan.h"

namespace vlr::core
{

/**
 * One hot shard's storage + search implementation.
 *
 * Implementations must be internally immutable after construction:
 * searchClusters() is const and may run from any number of threads
 * concurrently (the tiered batch executor fans different queries' shard
 * scans across a pool). A shard is rebuilt — never mutated — on
 * repartition: the tiered runtime constructs a fresh backend set for
 * the new placement and swaps the whole snapshot.
 *
 * Correctness contract: for every cluster assigned to the shard,
 * searchClusters() must return exactly the hits the source index's
 * searchClusters() returns for the same (query, k, clusters), with
 * bit-identical distances — the tiered parity guarantee (merged
 * per-shard top-k == single-tier serial search) rests on it.
 */
class HotShardBackend
{
  public:
    virtual ~HotShardBackend() = default;

    /**
     * Scan @p clusters (all resident on this shard) for one query and
     * return the top-k hits sorted by (dist, id).
     * @param query dim() floats.
     * @param k maximum hits returned.
     * @param clusters global cluster ids, every one resident on this
     *        shard.
     * @param scratch optional reusable per-thread buffers.
     */
    virtual std::vector<vs::SearchHit> searchClusters(
        const float *query, std::size_t k,
        std::span<const cluster_id_t> clusters,
        vs::SearchScratch *scratch) const = 0;

    /** Bytes of the lists this shard serves (ids + packed codes). */
    virtual std::size_t bytes() const = 0;

    /** Number of clusters resident on this shard. */
    virtual std::size_t numClusters() const = 0;

    /** Short backend name for stats and bench tables. */
    virtual std::string name() const = 0;

    /**
     * Bytes of this backend's data actually resident in RAM right now.
     * In-memory backends equal bytes(); backends serving out of a
     * memory-mapped file report only the pages the kernel currently
     * holds (storage::MmapColdTier walks mincore()). Advisory — the
     * value may be stale by the time the caller reads it.
     */
    virtual std::size_t residentBytes() const { return bytes(); }

    /**
     * Clusters whose data is fully RAM-resident right now. Advisory,
     * like residentBytes(); defaults to numClusters() for in-memory
     * backends.
     */
    virtual std::size_t residentClusters() const { return numClusters(); }
};

/**
 * Default backend: a view of the shard's clusters in the source index.
 * It holds a reference to the source plus the shard's cluster count and
 * byte footprint, and scans through the source's searchClusters(), so
 * building a shard copies no list and its distances are the source's
 * own — the strongest possible form of the parity contract.
 */
class FastScanShardBackend : public HotShardBackend
{
  public:
    /**
     * @param source trained and populated source index; must outlive
     *        the backend and stay unmodified while it serves.
     * @param clusters global ids of the clusters this shard serves.
     */
    FastScanShardBackend(const vs::IvfPqFastScanIndex &source,
                         std::span<const cluster_id_t> clusters);

    std::vector<vs::SearchHit> searchClusters(
        const float *query, std::size_t k,
        std::span<const cluster_id_t> clusters,
        vs::SearchScratch *scratch) const override;

    std::size_t bytes() const override { return bytes_; }
    std::size_t numClusters() const override { return numClusters_; }
    std::string name() const override { return "fastscan"; }

  private:
    const vs::IvfPqFastScanIndex &source_;
    std::size_t numClusters_ = 0;
    std::size_t bytes_ = 0;
};

/**
 * Test/bench double modelling a slower device: delegates every call to
 * an inner backend and busy-sleeps a fixed delay per searchClusters()
 * call. Results stay bit-identical to the inner backend; only timing
 * changes — which is exactly what repartition-under-load and fan-out
 * concurrency tests need.
 */
class ThrottledShardBackend : public HotShardBackend
{
  public:
    /**
     * @param inner backend actually serving the scans.
     * @param delay_seconds wall-clock delay added to every scan call.
     */
    ThrottledShardBackend(std::unique_ptr<HotShardBackend> inner,
                          double delay_seconds);

    std::vector<vs::SearchHit> searchClusters(
        const float *query, std::size_t k,
        std::span<const cluster_id_t> clusters,
        vs::SearchScratch *scratch) const override;

    std::size_t bytes() const override { return inner_->bytes(); }
    std::size_t numClusters() const override { return inner_->numClusters(); }
    std::string name() const override
    {
        return "throttled(" + inner_->name() + ")";
    }

    /** Configured per-scan delay in seconds. */
    double delaySeconds() const { return delaySeconds_; }

  private:
    std::unique_ptr<HotShardBackend> inner_;
    double delaySeconds_ = 0.0;
};

/**
 * Builds the backend for one shard of a placement. Called once per
 * shard per (re)partition, off the snapshot lock; must return a fully
 * usable backend for the given cluster set (possibly empty).
 * @param source the tiered runtime's source index.
 * @param clusters global ids of the clusters assigned to this shard.
 * @param shard_id shard index in [0, num_shards).
 */
using ShardBackendFactory =
    std::function<std::unique_ptr<HotShardBackend>(
        const vs::IvfPqFastScanIndex &source,
        std::span<const cluster_id_t> clusters, std::size_t shard_id)>;

/** Factory for the default fast-scan view backend. */
ShardBackendFactory fastScanShardFactory();

/**
 * Factory wrapping every shard's fast-scan view in a
 * ThrottledShardBackend with the given per-scan delay.
 */
ShardBackendFactory throttledShardFactory(double delay_seconds);

} // namespace vlr::core

#endif // VLR_CORE_SHARD_BACKEND_H
