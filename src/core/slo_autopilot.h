/**
 * @file
 * Closed-loop SLO autopilot: the paper's offline planning pipeline
 * (Figs. 11/16) run continuously against the live engine.
 *
 * Offline, VectorLiteRAG profiles search latency, estimates hit rates
 * and runs the latency-bounded partitioner once per deployment. The
 * autopilot closes that loop at serving time: every control cycle it
 *
 *   1. fits SearchPerfModel::fromKnots from observed per-batch route
 *      (T_CQ) and scan (T_LUT) wall times,
 *   2. rebuilds the AccessProfile from the tiered index's live
 *      per-cluster probe counts (exponentially decayed across cycles),
 *   3. re-estimates hit rates from a reservoir of recent queries,
 *   4. re-runs LatencyBoundedPartitioner against the *measured*
 *      arrival rate, and
 *   5. actuates: dispatcher batch cap via
 *      RetrievalEngine::setBatchCap, coverage rho and hot-shard count
 *      via TieredIndex::repartition. The rebuild runs on the control
 *      thread (the caller's thread for manual cycles) and publishes
 *      with one snapshot swap; the dispatcher only ever enters
 *      observeBatch(), so no in-flight batch stalls on it.
 *
 * The autopilot is the only component that repartitions a served
 * TieredIndex: the paper's runtime update loop (Section IV-B3, Fig. 9)
 * is this cycle, with the hot-set overlap check standing in for its
 * hit-rate drift trigger.
 *
 * The per-disposition stats are the SLO-attainment feedback (the
 * paper's attainment signal): when the windowed expired+rejected
 * fraction exceeds AutopilotPolicy::missRateTarget the autopilot
 * escalates coverage one rhoStep beyond the model's pick. A hot-set
 * overlap check triggers rebuilds on hotspot flips that move cluster
 * membership without moving rho.
 *
 * With the TenantPolicy enabled the attainment signal is
 * tenant-aware: each cycle takes per-tenant windowed miss/latency
 * observations from the per-tenant stat slices, the escalation
 * objective becomes the weight-averaged per-tenant miss rate
 * (AutopilotDecision::weightedMissRate) — and any single tenant
 * breaching its own TenantSloTarget (window miss rate or running p99)
 * escalates too, so a premium tenant's SLO cannot be averaged away by
 * a healthy majority. With TenantPolicy::adaptiveShares the cycle
 * also refits each tenant's live admission share toward its measured
 * demand fraction (EWMA-smoothed by AutopilotPolicy::shareSmoothing,
 * clamped to the class's [minShare, maxShare]) through
 * RetrievalEngine::setTenantShare; every per-tenant measurement and
 * share move is recorded in AutopilotDecision::tenants.
 *
 * Scan-time normalization: observed scan wall time is divided by the
 * batch's miss fraction (clamped away from 0) to recover the
 * full-miss T_LUT the perf model expects — this assumes hot-shard
 * scans are off the critical path, which holds for the in-memory
 * view backends standing in for the paper's GPU shards.
 *
 * Every decision is surfaced through EngineStatsSnapshot (bounded
 * autopilotTrace) so benches can plot chosen rho / shards / batch cap
 * over time.
 */

#ifndef VLR_CORE_SLO_AUTOPILOT_H
#define VLR_CORE_SLO_AUTOPILOT_H

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine_runtime.h"
#include "core/serving_api.h"
#include "core/tiered_index.h"

namespace vlr::core
{

/** One batch's signal sample, fed by the engine after every tiered
 *  batch (cheap: bounded buffer append + reservoir update). */
struct BatchObservation
{
    std::size_t batchSize = 0;
    /** Coarse-quantize + route share of the batch wall seconds
     *  (T_CQ sample; TieredBatchStats::routeSeconds). */
    double routeSeconds = 0.0;
    /** LUT build + bucket scan share of the batch wall seconds
     *  (miss-normalized into T_LUT; TieredBatchStats::scanSeconds). */
    double scanSeconds = 0.0;
    /** Work-weighted mean hit rate of the batch. */
    double meanHitRate = 0.0;
};

/**
 * The control loop. Construct with the engine it steers and the tiered
 * index that engine serves, which the autopilot repartitions (both
 * must outlive the autopilot); construction attaches it to the engine.
 * With policy.controlIntervalSeconds > 0 a background thread runs
 * cycles periodically; at 0 the loop is manual — tests and benches
 * call runControlCycle() themselves for determinism. Destroy (or
 * stop()) before the engine unless the engine owns the autopilot
 * (EngineBuilder::autopilot path, which sequences teardown).
 */
class SloAutopilot
{
  public:
    SloAutopilot(RetrievalEngine &engine, TieredIndex &index,
                 AutopilotPolicy policy);
    ~SloAutopilot();

    SloAutopilot(const SloAutopilot &) = delete;
    SloAutopilot &operator=(const SloAutopilot &) = delete;

    /**
     * Record one executed batch (called by the engine on the
     * dispatcher thread; thread-safe and cheap). @p queries holds the
     * batch's row-major query vectors, reservoir-sampled into the
     * hit-rate calibration set.
     */
    void observeBatch(const BatchObservation &obs,
                      std::span<const float> queries, std::size_t nq);

    /**
     * Run one synchronous control cycle: fit, re-partition, actuate.
     * Serialized against the background thread; safe to call
     * concurrently. Returns true when the cycle repartitioned the hot
     * tier — the new placement is live by the time it returns
     * (cap-only actuation returns false).
     */
    bool runControlCycle();

    /** Stop the background control thread (idempotent). */
    void stop();

    std::size_t cyclesRun() const;
    const AutopilotPolicy &policy() const { return policy_; }

  private:
    using Clock = std::chrono::steady_clock;

    void controlLoop();

    RetrievalEngine &engine_;
    TieredIndex &index_;
    AutopilotPolicy policy_;

    /** Signal intake (dispatcher-thread side). */
    mutable std::mutex obsMutex_;
    std::vector<BatchObservation> observations_;
    /** Row-major reservoir of recent queries (policy_.queryReservoir
     *  rows of index dim). */
    std::vector<float> reservoir_;
    std::size_t reservoirRows_ = 0;
    std::size_t reservoirSeen_ = 0;
    Rng rng_{0xa0707110};

    /** Per-tenant counter positions at the last cycle, so each cycle
     *  sees windowed (not lifetime) per-tenant observations. */
    struct TenantWindow
    {
        std::size_t lastSubmitted = 0;
        std::size_t lastServed = 0;
        std::size_t lastExpired = 0;
        std::size_t lastRejected = 0;
    };

    /** Control-cycle state (cycle side; cycleMutex_ serializes). */
    mutable std::mutex cycleMutex_;
    std::vector<double> counts_;
    std::size_t lastSubmitted_ = 0;
    std::size_t lastExpired_ = 0;
    std::size_t lastRejected_ = 0;
    std::size_t lastCompleted_ = 0;
    std::map<TenantId, TenantWindow> tenantWindows_;
    Clock::time_point lastCycle_;
    std::size_t cycles_ = 0;

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopped_ = false;
    std::thread thread_;
};

} // namespace vlr::core

#endif // VLR_CORE_SLO_AUTOPILOT_H
