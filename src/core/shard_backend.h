/**
 * @file
 * Pluggable per-shard hot-tier backends.
 *
 * The tiered runtime's hot tier is N shards, each behind a
 * HotShardBackend: an abstract per-shard scan/bytes/build API that
 * decouples TieredIndex from the concrete storage serving a shard. A
 * tiered query builds its LUT and its TopK once and hands both to every
 * backend holding one of its probes, so a backend only scans lists. The
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
 * One hot shard's storage + scan implementation.
 *
 * Implementations must be internally immutable after construction:
 * scanClusters() is const and may run from any number of threads
 * concurrently (each tiered query runs in its own pool task). A shard
 * is rebuilt — never mutated — on repartition: the tiered runtime
 * constructs a fresh backend set for the new placement and swaps the
 * whole snapshot.
 *
 * Correctness contract: for every cluster assigned to the shard,
 * scanClusters() must offer @p topk exactly the (id, distance) pairs
 * the source index's IvfPqFastScanIndex::scanClusters() offers for the
 * same (qlut, clusters), with bit-identical distances. TopK keeps the
 * k least hits under the (dist, id) order whatever order lists arrive
 * in, so a query's buckets scanned into one TopK reproduce the
 * single-tier serial search — the tiered parity guarantee rests on it.
 */
class HotShardBackend
{
  public:
    virtual ~HotShardBackend() = default;

    /**
     * Scan @p clusters (all resident on this shard) for one query into
     * the query's running top-k.
     * @param query dim() floats: the raw query, for a backend that
     *        scores on its own device instead of with @p qlut.
     * @param qlut the query's LUT, built once from the source index's
     *        PQ (vs::buildQuantizedLut).
     * @param clusters global cluster ids, every one resident on this
     *        shard.
     * @param scratch the calling thread's reusable scan buffers.
     * @param topk the query's one TopK. It may already hold hits from
     *        other buckets, so its k-th best need not lie on the score
     *        grid of the lists scanned here.
     */
    virtual void scanClusters(const float *query,
                              const vs::QuantizedLut &qlut,
                              std::span<const cluster_id_t> clusters,
                              vs::SearchScratch &scratch,
                              vs::TopK &topk) const = 0;

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
 * byte footprint, and scans through the source's scanClusters(), so
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

    void scanClusters(const float *query, const vs::QuantizedLut &qlut,
                      std::span<const cluster_id_t> clusters,
                      vs::SearchScratch &scratch,
                      vs::TopK &topk) const override;

    std::size_t bytes() const override { return bytes_; }
    std::size_t numClusters() const override { return numClusters_; }
    std::string name() const override { return "fastscan"; }

  private:
    const vs::IvfPqFastScanIndex &source_;
    std::size_t numClusters_ = 0;
    std::size_t bytes_ = 0;
};

/**
 * Test/bench double modelling a slower device: sleeps a fixed delay
 * per scanClusters() call, then delegates to an inner backend. Results
 * stay bit-identical to the inner backend; only timing changes — which
 * is exactly what repartition-under-load and concurrency tests need.
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

    void scanClusters(const float *query, const vs::QuantizedLut &qlut,
                      std::span<const cluster_id_t> clusters,
                      vs::SearchScratch &scratch,
                      vs::TopK &topk) const override;

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
