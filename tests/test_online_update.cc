/**
 * @file
 * Tests for the adaptive runtime index update: drift detection and the
 * re-profile / re-partition / re-split cycle (Section IV-B3, Fig. 9).
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/online_update.h"

namespace vlr::core
{
namespace
{

TEST(DriftMonitor, NoDriftWhenObservationsMatch)
{
    DriftMonitorParams params;
    params.windowRequests = 100;
    DriftMonitor mon(params, 0.6);
    for (int i = 0; i < 100; ++i)
        mon.record(0.6, true);
    EXPECT_TRUE(mon.windowFull());
    EXPECT_FALSE(mon.driftDetected());
}

TEST(DriftMonitor, DetectsHitRateDivergenceWithSloMisses)
{
    DriftMonitorParams params;
    params.windowRequests = 100;
    params.hitRateDivergence = 0.10;
    params.attainmentThreshold = 0.85;
    DriftMonitor mon(params, 0.6);
    for (int i = 0; i < 100; ++i)
        mon.record(0.3, i % 2 == 0); // attainment 0.5, hit rate 0.3
    EXPECT_TRUE(mon.driftDetected());
    EXPECT_NEAR(mon.observedHitRate(), 0.3, 1e-9);
    EXPECT_NEAR(mon.observedAttainment(), 0.5, 1e-9);
}

TEST(DriftMonitor, DivergenceAloneIsNotDrift)
{
    // Hit rate diverges but SLOs are still met: no update needed.
    DriftMonitorParams params;
    params.windowRequests = 50;
    DriftMonitor mon(params, 0.6);
    for (int i = 0; i < 50; ++i)
        mon.record(0.3, true);
    EXPECT_FALSE(mon.driftDetected());
}

TEST(DriftMonitor, MissesAloneAreNotDrift)
{
    // Attainment drops but hit rates match: the model is fine, load is
    // just too high - repartitioning would not help.
    DriftMonitorParams params;
    params.windowRequests = 50;
    DriftMonitor mon(params, 0.6);
    for (int i = 0; i < 50; ++i)
        mon.record(0.6, false);
    EXPECT_FALSE(mon.driftDetected());
}

TEST(DriftMonitor, ResetStartsNewWindow)
{
    DriftMonitorParams params;
    params.windowRequests = 10;
    DriftMonitor mon(params, 0.6);
    for (int i = 0; i < 10; ++i)
        mon.record(0.2, false);
    EXPECT_TRUE(mon.driftDetected());
    mon.reset(0.2);
    EXPECT_EQ(mon.windowCount(), 0u);
    EXPECT_FALSE(mon.driftDetected());
}

TEST(DriftMonitor, NotTriggeredBeforeWindowFills)
{
    DriftMonitorParams params;
    params.windowRequests = 1000;
    DriftMonitor mon(params, 0.6);
    for (int i = 0; i < 10; ++i)
        mon.record(0.0, false);
    EXPECT_FALSE(mon.driftDetected());
}

// --- Update timings (Fig. 9) -------------------------------------------

TEST(UpdateTimings, StagesArePositiveAndOrdered)
{
    DatasetContext ctx(wl::tinySpec());
    const auto t = estimateUpdateTimings(ctx, 0.3, 4, 5000, 2.0);
    EXPECT_GT(t.profilingSeconds, 0.0);
    EXPECT_GT(t.algorithmSeconds, 0.0);
    EXPECT_GT(t.splittingSeconds, 0.0);
    EXPECT_GT(t.loadingSeconds, 0.0);
    EXPECT_NEAR(t.total(),
                t.profilingSeconds + t.algorithmSeconds +
                    t.splittingSeconds + t.loadingSeconds,
                1e-12);
    // Paper Fig. 9: the full rebuild completes within a minute.
    EXPECT_LT(t.total(), 60.0);
}

TEST(UpdateTimings, MoreCoverageMoreSplitAndLoadTime)
{
    DatasetContext ctx(wl::tinySpec());
    const auto small = estimateUpdateTimings(ctx, 0.1, 4, 5000, 2.0);
    const auto large = estimateUpdateTimings(ctx, 0.8, 4, 5000, 2.0);
    EXPECT_GT(large.splittingSeconds, small.splittingSeconds);
    EXPECT_GT(large.loadingSeconds, small.loadingSeconds);
}

TEST(UpdateTimings, MoreProfileQueriesMoreProfilingTime)
{
    DatasetContext ctx(wl::tinySpec());
    const auto few = estimateUpdateTimings(ctx, 0.3, 4, 1000, 2.0);
    const auto many = estimateUpdateTimings(ctx, 0.3, 4, 50000, 2.0);
    EXPECT_GT(many.profilingSeconds, few.profilingSeconds);
}

// --- Full update cycle ---------------------------------------------------

TEST(UpdateCycle, RestoresHitRateAfterDrift)
{
    DatasetContext ctx(wl::tinySpec());
    wl::QueryGenerator gen(ctx.dataset(), 31);

    PartitionInputs inputs;
    inputs.sloSearchSeconds = 0.1;
    inputs.peakLlmThroughput = 20.0;
    inputs.kvBaselineBytes = 100e9;

    // Partition against the original distribution.
    LatencyBoundedPartitioner part(ctx.perfModel(), ctx.estimator(),
                                   ctx.profile());
    const auto before = part.partition(inputs);
    const auto hot_before = ctx.profile().hotBitmap(before.rho);

    // Heavy drift: the old hot set no longer matches the traffic.
    gen.drift(0.8);
    const auto drifted_plans = ctx.plansFor(gen, 400);
    double stale_mean = 0.0;
    for (const double r : drifted_plans.allHitRates(hot_before))
        stale_mean += r;
    stale_mean /= static_cast<double>(drifted_plans.size());

    // Run the update cycle: re-profile + re-partition + re-split.
    const auto outcome = runUpdateCycle(ctx, gen, inputs, 4);
    std::vector<bool> hot_after(ctx.profile().nlist(), false);
    for (const auto c : ctx.profile().hotClusters(outcome.partition.rho))
        hot_after[static_cast<std::size_t>(c)] = true;

    const auto fresh_plans = ctx.plansFor(gen, 400);
    double fresh_mean = 0.0;
    for (const double r : fresh_plans.allHitRates(hot_after))
        fresh_mean += r;
    fresh_mean /= static_cast<double>(fresh_plans.size());

    // The refreshed hot set must serve the drifted stream at least as
    // well as the stale one (almost always strictly better).
    EXPECT_GE(fresh_mean, stale_mean - 0.02);
    EXPECT_GT(outcome.timings.total(), 0.0);
    EXPECT_EQ(outcome.assignment.numShards(), 4u);
}

TEST(UpdateCycle, AssignmentMatchesPartition)
{
    DatasetContext ctx(wl::tinySpec());
    wl::QueryGenerator gen(ctx.dataset(), 5);
    PartitionInputs inputs;
    inputs.sloSearchSeconds = 0.08;
    inputs.peakLlmThroughput = 25.0;
    inputs.kvBaselineBytes = 100e9;
    const auto outcome = runUpdateCycle(ctx, gen, inputs, 2);
    EXPECT_NEAR(outcome.assignment.rho, outcome.partition.rho, 1e-12);
    EXPECT_NEAR(outcome.assignment.totalGpuBytes(),
                ctx.profile().indexBytes(outcome.partition.rho),
                1e-6 * (1.0 + outcome.assignment.totalGpuBytes()));
}

} // namespace
} // namespace vlr::core
