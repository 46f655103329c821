/**
 * @file
 * Precomputed query plans: each query's probe list from the coarse
 * quantizer plus per-probe scan work. Serving simulations replay plans
 * (pure arithmetic), so a single coarse-quantization pass per dataset
 * serves every system and arrival rate; quality-bearing benches run the
 * real scan code instead.
 */

#ifndef VLR_WORKLOAD_PLANS_H
#define VLR_WORKLOAD_PLANS_H

#include <span>
#include <vector>

#include "common/types.h"
#include "vecsearch/ivf.h"

namespace vlr::wl
{

/** One query's retrieval plan. */
struct QueryPlan
{
    /** Probed clusters sorted by centroid distance. */
    std::vector<cluster_id_t> probes;
    /** Paper-scale scan work (vectors) per probe. */
    std::vector<double> probeWork;
    /** Sum of probeWork. */
    double totalWork = 0.0;
};

/** A pool of plans for a query set. */
class PlanSet
{
  public:
    PlanSet() = default;

    /**
     * Build plans for nq queries.
     * @param work_per_cluster paper-scale vectors of each cluster.
     */
    static PlanSet build(const vs::FlatCoarseQuantizer &cq,
                         std::span<const float> queries, std::size_t nq,
                         std::size_t nprobe,
                         std::span<const double> work_per_cluster);

    const QueryPlan &plan(std::size_t i) const { return plans_.at(i); }
    std::size_t size() const { return plans_.size(); }

    /** Per-cluster access counts over all plans (profiling input). */
    std::vector<double> clusterAccessCounts(std::size_t nlist) const;

    /**
     * Work-weighted hit rate of plan i against a hot-cluster bitmap:
     * fraction of the plan's scan work resident on the hot tier.
     */
    double hitRate(std::size_t i, const std::vector<bool> &hot) const;

    /** Hit rates of every plan (Fig. 6 raw data). */
    std::vector<double> allHitRates(const std::vector<bool> &hot) const;

  private:
    std::vector<QueryPlan> plans_;
};

} // namespace vlr::wl

#endif // VLR_WORKLOAD_PLANS_H
