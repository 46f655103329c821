/**
 * @file
 * Inverted-file (IVF) index structures.
 *
 * An IVF index clusters the database with k-means; each vector is stored
 * in the inverted list of its nearest centroid. A query first runs coarse
 * quantization (CQ) against the centroids, then scans the `nprobe`
 * closest lists. The probe lists produced here are also the raw material
 * for VectorLiteRAG's access-skew profiling.
 */

#ifndef VLR_VECSEARCH_IVF_H
#define VLR_VECSEARCH_IVF_H

#include <memory>
#include <span>
#include <vector>

#include "vecsearch/flat_index.h"
#include "vecsearch/metric.h"
#include "vecsearch/topk.h"

namespace vlr::vs
{

/** Result of coarse quantization for one query. */
struct ProbeList
{
    /** Cluster ids sorted by increasing centroid distance. */
    std::vector<cluster_id_t> clusters;
    /** Matching centroid distances. */
    std::vector<float> dists;
};

/**
 * Interface for the coarse quantizer: nearest-centroid search. The paper
 * keeps CQ on the CPU (Section IV-A1); the implementation here is a flat
 * scan.
 */
class CoarseQuantizer
{
  public:
    virtual ~CoarseQuantizer() = default;

    virtual std::size_t nlist() const = 0;
    virtual std::size_t dim() const = 0;

    /** Return the nprobe closest clusters for a query. */
    virtual ProbeList probe(const float *query, std::size_t nprobe) const = 0;

    /** Centroid vector for a cluster (for residual computation). */
    virtual const float *centroid(cluster_id_t c) const = 0;
};

/**
 * Exhaustive coarse quantizer over the centroid matrix.
 *
 * probe() scores every centroid with one distancesToMany() call, offers
 * each 16-centroid group's nearest to a TopK of nprobe, then makes one
 * pass over the other centroids: every one is pushed until the TopK is
 * full, and after that only lanes passing a SIMD `d <= worst()`
 * compare are. The probe list is bit-identical to pushing every
 * centroid in index order:
 *  - each centroid is offered at most once, and all are offered while
 *    the TopK is not full;
 *  - once full, worst() never rises, so a lane above it would be
 *    rejected by push() in any visit order;
 *  - without NaN, hitLess is a strict total order on (dist, id), so the
 *    kept set and its sorted order do not depend on visit order.
 *
 * The filter must not start before the TopK is full: worst() is float
 * max until then, and an +inf distance fails `d <= worst()`, so such
 * a centroid would be dropped from a probe that needs it. A NaN
 * distance passes no compare; the probe still returns min(nprobe,
 * nlist) distinct clusters, but which ones is unspecified.
 */
class FlatCoarseQuantizer : public CoarseQuantizer
{
  public:
    FlatCoarseQuantizer(std::vector<float> centroids, std::size_t nlist,
                        std::size_t dim, Metric metric = Metric::L2);

    std::size_t nlist() const override { return nlist_; }
    std::size_t dim() const override { return dim_; }
    ProbeList probe(const float *query, std::size_t nprobe) const override;
    const float *centroid(cluster_id_t c) const override;
    Metric metric() const { return metric_; }

  private:
    std::vector<float> centroids_;
    std::size_t nlist_;
    std::size_t dim_;
    Metric metric_;
};

/**
 * IVF index storing raw float vectors in its inverted lists (IVF-Flat).
 */
class IvfFlatIndex
{
  public:
    /**
     * @param cq trained coarse quantizer (shared so VectorLiteRAG's
     *           shards can reuse a single centroid table).
     */
    IvfFlatIndex(std::shared_ptr<const CoarseQuantizer> cq,
                 Metric metric = Metric::L2);

    /** Assign and append n vectors; ids are sequential across add calls. */
    void add(std::span<const float> vecs, std::size_t n);

    /** Append vectors with precomputed cluster assignments. */
    void addPreassigned(std::span<const float> vecs, std::size_t n,
                        std::span<const std::int32_t> assign);

    /** k-NN search probing the nprobe closest lists. */
    std::vector<SearchHit> search(const float *query, std::size_t k,
                                  std::size_t nprobe) const;

    /** Scan an explicit set of clusters (used by the hybrid pipeline). */
    std::vector<SearchHit> searchClusters(
        const float *query, std::size_t k,
        std::span<const cluster_id_t> clusters) const;

    const CoarseQuantizer &quantizer() const { return *cq_; }
    std::size_t dim() const { return cq_->dim(); }
    std::size_t nlist() const { return cq_->nlist(); }
    std::size_t size() const { return total_; }

    std::size_t listSize(cluster_id_t c) const;
    /** Sizes of every inverted list (drives skew statistics). */
    std::vector<std::size_t> listSizes() const;
    const std::vector<idx_t> &listIds(cluster_id_t c) const;

  private:
    std::shared_ptr<const CoarseQuantizer> cq_;
    Metric metric_;
    std::size_t total_ = 0;
    std::vector<std::vector<idx_t>> ids_;
    std::vector<std::vector<float>> vecs_;
};

} // namespace vlr::vs

#endif // VLR_VECSEARCH_IVF_H
