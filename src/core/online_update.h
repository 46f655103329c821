/**
 * @file
 * Adaptive runtime index update (paper Section IV-B3, Fig. 9).
 *
 * The router monitors average hit rates and SLO attainment over request
 * windows; when observed hit rates diverge from the expectation, an
 * update cycle runs: re-profile access patterns, re-run the latency-
 * bounded partitioner, split shards and load them onto the GPUs. Stage
 * timings are modeled after the paper's measured breakdown: profiling
 * dominates, splitting is a memory-bandwidth copy, loading is a PCIe
 * transfer, and shards refresh one at a time with queries for a
 * refreshing shard temporarily routed to the CPU.
 *
 * This is the simulator-side model of the update loop. The live engine
 * runs the same loop through SloAutopilot (slo_autopilot.h), which
 * repartitions a served TieredIndex directly.
 */

#ifndef VLR_CORE_ONLINE_UPDATE_H
#define VLR_CORE_ONLINE_UPDATE_H

#include "core/context.h"
#include "core/partitioner.h"
#include "core/splitter.h"

namespace vlr::core
{

/** Wall-clock (simulated) cost of one rebuild, per stage. */
struct UpdateStageTimings
{
    double profilingSeconds = 0.0;
    double algorithmSeconds = 0.0;
    double splittingSeconds = 0.0;
    double loadingSeconds = 0.0;

    double
    total() const
    {
        return profilingSeconds + algorithmSeconds + splittingSeconds +
               loadingSeconds;
    }
};

/** Drift-detection thresholds (Section IV-B3). */
struct DriftMonitorParams
{
    /** Trigger when |observed - expected| mean hit rate exceeds this. */
    double hitRateDivergence = 0.10;
    /** ... and attainment over the window falls below this. */
    double attainmentThreshold = 0.85;
    /** Requests per monitoring window before counters reset. */
    std::size_t windowRequests = 2000;
};

/** Sliding-window statistics the router keeps at runtime. */
class DriftMonitor
{
  public:
    DriftMonitor(DriftMonitorParams params, double expected_hit_rate);

    /** Record one served request. */
    void record(double hit_rate, bool slo_met);

    /** True when the current window indicates distribution drift. */
    bool driftDetected() const;

    /** Reset counters (after an update or a window rollover). */
    void reset(double new_expected_hit_rate);

    double observedHitRate() const;
    double observedAttainment() const;
    std::size_t windowCount() const { return count_; }
    bool windowFull() const { return count_ >= params_.windowRequests; }

  private:
    DriftMonitorParams params_;
    double expectedHitRate_;
    double hitSum_ = 0.0;
    std::size_t sloMet_ = 0;
    std::size_t count_ = 0;
};

/**
 * Model of the rebuild pipeline timing.
 *
 * @param num_profile_queries calibration queries replayed through the
 *        coarse quantizer (the paper uses 0.5% of the stream).
 * @param partition_wall_seconds measured wall time of Algorithm 1.
 * @param host_copy_bw bytes/s for shard assembly in host memory.
 * @param pcie_bw bytes/s host-to-device for shard loading.
 */
UpdateStageTimings estimateUpdateTimings(
    const DatasetContext &ctx, double rho, int num_shards,
    std::size_t num_profile_queries, double partition_wall_seconds,
    double host_copy_bw = 12e9, double pcie_bw = 25e9);

/**
 * Run one full update cycle against a context whose query stream has
 * drifted: re-profile, re-partition, re-split. Returns the new
 * assignment and the simulated stage timings.
 */
struct UpdateOutcome
{
    PartitionResult partition;
    ShardAssignment assignment;
    UpdateStageTimings timings;
};

UpdateOutcome runUpdateCycle(DatasetContext &ctx, wl::QueryGenerator &gen,
                             const PartitionInputs &inputs, int num_shards);

} // namespace vlr::core

#endif // VLR_CORE_ONLINE_UPDATE_H
