/**
 * @file
 * Inverted-file (IVF) coarse quantization.
 *
 * An IVF index clusters the database with k-means; each vector is stored
 * in the inverted list of its nearest centroid. A query first runs coarse
 * quantization (CQ) against the centroids, then scans the `nprobe`
 * closest lists. The probe lists produced here are also the raw material
 * for VectorLiteRAG's access-skew profiling.
 */

#ifndef VLR_VECSEARCH_IVF_H
#define VLR_VECSEARCH_IVF_H

#include <vector>

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
 * Exhaustive coarse quantizer over the centroid matrix: the
 * nearest-centroid search every IVF index here runs. The paper keeps CQ
 * on the CPU (Section IV-A1). probe() is const and safe to call from
 * any number of threads.
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
class FlatCoarseQuantizer
{
  public:
    FlatCoarseQuantizer(std::vector<float> centroids, std::size_t nlist,
                        std::size_t dim, Metric metric = Metric::L2);

    std::size_t nlist() const { return nlist_; }
    std::size_t dim() const { return dim_; }
    /** Return the nprobe closest clusters for a query. */
    ProbeList probe(const float *query, std::size_t nprobe) const;
    /** Centroid vector for a cluster (for residual computation). */
    const float *centroid(cluster_id_t c) const;
    Metric metric() const { return metric_; }

  private:
    std::vector<float> centroids_;
    std::size_t nlist_;
    std::size_t dim_;
    Metric metric_;
};

} // namespace vlr::vs

#endif // VLR_VECSEARCH_IVF_H
