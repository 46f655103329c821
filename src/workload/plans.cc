#include "workload/plans.h"

#include <cassert>

namespace vlr::wl
{

PlanSet
PlanSet::build(const vs::FlatCoarseQuantizer &cq,
               std::span<const float> queries, std::size_t nq,
               std::size_t nprobe,
               std::span<const double> work_per_cluster)
{
    const std::size_t d = cq.dim();
    assert(queries.size() >= nq * d);
    assert(work_per_cluster.size() >= cq.nlist());

    PlanSet ps;
    ps.plans_.resize(nq);
    for (std::size_t i = 0; i < nq; ++i) {
        const auto pl = cq.probe(queries.data() + i * d, nprobe);
        QueryPlan &plan = ps.plans_[i];
        plan.probes = pl.clusters;
        plan.probeWork.reserve(plan.probes.size());
        plan.totalWork = 0.0;
        for (const cluster_id_t c : plan.probes) {
            const double w = work_per_cluster[static_cast<std::size_t>(c)];
            plan.probeWork.push_back(w);
            plan.totalWork += w;
        }
    }
    return ps;
}

std::vector<double>
PlanSet::clusterAccessCounts(std::size_t nlist) const
{
    std::vector<double> counts(nlist, 0.0);
    for (const auto &plan : plans_) {
        for (const cluster_id_t c : plan.probes)
            counts[static_cast<std::size_t>(c)] += 1.0;
    }
    return counts;
}

double
PlanSet::hitRate(std::size_t i, const std::vector<bool> &hot) const
{
    const QueryPlan &plan = plans_.at(i);
    if (plan.totalWork <= 0.0)
        return 0.0;
    double hit = 0.0;
    for (std::size_t j = 0; j < plan.probes.size(); ++j) {
        if (hot[static_cast<std::size_t>(plan.probes[j])])
            hit += plan.probeWork[j];
    }
    return hit / plan.totalWork;
}

std::vector<double>
PlanSet::allHitRates(const std::vector<bool> &hot) const
{
    std::vector<double> out(plans_.size());
    for (std::size_t i = 0; i < plans_.size(); ++i)
        out[i] = hitRate(i, hot);
    return out;
}

} // namespace vlr::wl
