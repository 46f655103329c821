/**
 * @file
 * Tests for the closed-loop control surface: EDF ordering inside a
 * priority class, graceful nprobe degradation under queue pressure
 * (never below the floor, parity when idle or disabled, and scoped to
 * degradable tenant classes), the SloAutopilot re-picking and
 * rebuilding the hot set after a hotspot flip (in manual cycles and on
 * its background control thread under concurrent clients), the
 * tenant-aware control cycle (adaptive admission shares tracking
 * measured demand inside each class's clamp, per-tenant SLO breaches
 * escalating coverage and the weighted miss objective), and
 * EngineBuilder validation of the degradation / autopilot policy
 * knobs.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/access_profile.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/shard_backend.h"
#include "core/slo_autopilot.h"
#include "core/tiered_index.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/kmeans.h"

namespace vlr::core
{
namespace
{

/** Fixed-seed clustered corpus + a trained fast-scan index. */
struct AutopilotFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(77);
        centers_.resize(ncenters_ * d_);
        for (auto &x : centers_)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
        data_.resize(n_ * d_);
        for (std::size_t i = 0; i < n_; ++i) {
            const std::size_t c = rng.uniformU64(ncenters_);
            for (std::size_t j = 0; j < d_; ++j)
                data_[i * d_ + j] =
                    centers_[c * d_ + j] +
                    static_cast<float>(rng.gaussian(0.0, 0.15));
        }
        vs::KMeansParams p;
        p.k = nlist_;
        const auto km = vs::kmeansTrain(data_, n_, d_, p);
        cq_ = std::make_shared<vs::FlatCoarseQuantizer>(km.centroids,
                                                        nlist_, d_);
        index_ = std::make_unique<vs::IvfPqFastScanIndex>(cq_, m_);
        index_->train(data_, n_);
        index_->add(data_, n_);

        queries_.resize(nq_ * d_);
        for (std::size_t i = 0; i < nq_; ++i) {
            const std::size_t c = rng.uniformU64(ncenters_);
            for (std::size_t j = 0; j < d_; ++j)
                queries_[i * d_ + j] =
                    centers_[c * d_ + j] +
                    static_cast<float>(rng.gaussian(0.0, 0.2));
        }
    }

    /** Skewed synthetic access profile over the index's clusters. */
    AccessProfile
    makeProfile() const
    {
        std::vector<double> counts(nlist_), work(nlist_), bytes(nlist_);
        for (std::size_t c = 0; c < nlist_; ++c) {
            const auto id = static_cast<cluster_id_t>(c);
            counts[c] = static_cast<double>(nlist_ - c);
            work[c] = static_cast<double>(index_->listSize(id));
            bytes[c] = static_cast<double>(index_->listBytes(id));
        }
        return AccessProfile(std::move(counts), std::move(work),
                             std::move(bytes));
    }

    /**
     * Row-major queries drawn tightly around the fixture centers in
     * [center_lo, center_hi): a controllable hotspot population.
     */
    std::vector<float>
    hotspotQueries(std::size_t n, std::size_t center_lo,
                   std::size_t center_hi, std::uint64_t seed) const
    {
        Rng rng(seed);
        std::vector<float> q(n * d_);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t c =
                center_lo +
                rng.uniformU64(center_hi - center_lo);
            for (std::size_t j = 0; j < d_; ++j)
                q[i * d_ + j] =
                    centers_[c * d_ + j] +
                    static_cast<float>(rng.gaussian(0.0, 0.05));
        }
        return q;
    }

    std::span<const float>
    query(std::size_t i) const
    {
        return {queries_.data() + i * d_, d_};
    }

    /**
     * Manual-cycle policy under which a hotspot flip repartitions: no
     * inter-cycle count history, so the flip is immediate, and a
     * coverage floor, so the model's tiny-scale rho=0 pick keeps a
     * live hot set whose membership can flip.
     */
    static AutopilotPolicy
    flipPolicy()
    {
        AutopilotPolicy pilot;
        pilot.enable = true;
        pilot.controlIntervalSeconds = 0.0; // manual cycles only
        pilot.minBatchObservations = 2;
        pilot.queryReservoir = 32;
        pilot.countDecay = 0.0;
        pilot.minRho = 0.25;
        pilot.maxBatchCap = 16;
        return pilot;
    }

    /** Serve 64 hotspotQueries(lo, hi, seed) and drain; all served. */
    void
    serveHotspot(RetrievalEngine &engine, std::size_t center_lo,
                 std::size_t center_hi, std::uint64_t seed) const
    {
        const auto q = hotspotQueries(64, center_lo, center_hi, seed);
        std::vector<SearchRequest> requests(64);
        for (std::size_t i = 0; i < requests.size(); ++i)
            requests[i].query =
                std::span<const float>(q.data() + i * d_, d_);
        auto futures = engine.submitMany(requests);
        engine.drain();
        for (auto &f : futures)
            ASSERT_EQ(f.get().disposition, Disposition::kServed);
    }

    const std::size_t n_ = 3000;
    const std::size_t d_ = 16;
    const std::size_t m_ = 8;
    const std::size_t ncenters_ = 24;
    const std::size_t nlist_ = 32;
    const std::size_t nq_ = 48;
    std::vector<float> centers_;
    std::vector<float> data_;
    std::vector<float> queries_;
    std::shared_ptr<vs::FlatCoarseQuantizer> cq_;
    std::unique_ptr<vs::IvfPqFastScanIndex> index_;
};

// --- EDF dispatch -----------------------------------------------------

TEST_F(AutopilotFixture, EdfOrdersEqualPriorityByDeadline)
{
    // A throttled hot tier keeps the dispatcher busy in executeBatch
    // while the deadlined requests queue; with one-query batches the
    // completion order then mirrors batch-formation order, which
    // within a priority class must be earliest-deadline-first with
    // deadline-free requests last.
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 1.0,
                       TieredOptions{1, throttledShardFactory(50e-3)});
    const auto engine = EngineBuilder(tiered)
                            .searchThreads(2)
                            .batching({.maxBatch = 1,
                                       .timeoutSeconds = 0.0})
                            .build();

    std::mutex order_mutex;
    std::vector<std::uint64_t> completion_order;
    const auto record = [&](SearchResponse r) {
        std::lock_guard<std::mutex> lk(order_mutex);
        completion_order.push_back(r.tag);
    };

    SearchRequest warm;
    warm.query = query(0);
    warm.tag = 0;
    engine->submitAsync(warm, record);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    // Same priority throughout; deadlines generous enough never to
    // expire, submitted deliberately out of deadline order, with one
    // deadline-free request that must trail every deadlined one. Tags
    // encode the expected completion rank.
    const struct
    {
        double deadline;
        std::uint64_t tag;
    } submissions[] = {
        {5.0, 3}, {0.0, 5}, {2.0, 1}, {9.0, 4}, {3.0, 2},
    };
    std::size_t qi = 1;
    for (const auto &sub : submissions) {
        SearchRequest request;
        request.query = query(qi++);
        request.tag = sub.tag;
        if (sub.deadline > 0.0)
            request.deadlineSeconds = sub.deadline;
        engine->submitAsync(request, record);
    }
    engine->drain();

    ASSERT_EQ(completion_order.size(), 6u);
    for (std::size_t i = 0; i < completion_order.size(); ++i)
        EXPECT_EQ(completion_order[i], i)
            << "completion position " << i;
}

// --- Graceful degradation ---------------------------------------------

TEST_F(AutopilotFixture, DegradationEngagesUnderPressureNeverBelowFloor)
{
    // Burst a deep backlog through one-batch-at-a-time throttled
    // execution: pressure = (backlog + nq) / cap stays far above the
    // 1.0 threshold, so served requests must be degraded — but never
    // below nprobeFloor, and a request already below the floor is
    // served exactly as requested.
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 1.0,
                       TieredOptions{1, throttledShardFactory(2e-3)});
    DegradationPolicy degrade;
    degrade.enable = true;
    degrade.nprobeFloor = 4;
    degrade.queuePressure = 1.0;
    const auto engine = EngineBuilder(tiered)
                            .searchThreads(2)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 1e-3})
                            .degradation(degrade)
                            .build();

    std::vector<SearchRequest> requests(nq_);
    for (std::size_t i = 0; i < nq_; ++i) {
        requests[i].query = query(i);
        // Every sixth request already sits below the floor.
        requests[i].nprobe = i % 6 == 0 ? 2 : 16;
        requests[i].tag = i;
    }
    auto futures = engine->submitMany(requests);
    engine->drain();

    std::size_t degraded = 0;
    for (std::size_t i = 0; i < nq_; ++i) {
        const auto r = futures[i].get();
        ASSERT_EQ(r.disposition, Disposition::kServed);
        EXPECT_LE(r.nprobe, requests[i].nprobe) << "request " << i;
        EXPECT_GE(r.nprobe,
                  std::min<std::size_t>(requests[i].nprobe,
                                        degrade.nprobeFloor))
            << "request " << i;
        if (requests[i].nprobe == 2) {
            // Below-floor requests are never touched.
            EXPECT_EQ(r.nprobe, 2u) << "request " << i;
            EXPECT_FALSE(r.degraded) << "request " << i;
        }
        EXPECT_EQ(r.degraded, r.nprobe < requests[i].nprobe)
            << "request " << i;
        if (r.degraded)
            ++degraded;
    }
    EXPECT_GT(degraded, 0u);

    const auto s = engine->stats();
    EXPECT_EQ(s.degradedServed, degraded);
    EXPECT_GT(s.degradedBatches, 0u);
}

TEST_F(AutopilotFixture, DegradationOffMatchesSerialBitForBit)
{
    // With the policy disabled (the default) the burst path must stay
    // bit-identical to per-request serial tiered search: degradation
    // is strictly opt-in.
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 0.25, TieredOptions{2, {}});
    const auto engine = EngineBuilder(tiered)
                            .searchThreads(4)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 1e-3})
                            .build();

    std::vector<SearchRequest> requests(nq_);
    for (std::size_t i = 0; i < nq_; ++i) {
        requests[i].query = query(i);
        requests[i].nprobe = 16;
    }
    auto futures = engine->submitMany(requests);
    engine->drain();

    for (std::size_t i = 0; i < nq_; ++i) {
        const auto r = futures[i].get();
        ASSERT_EQ(r.disposition, Disposition::kServed);
        EXPECT_FALSE(r.degraded);
        EXPECT_EQ(r.nprobe, 16u);
        const auto serial =
            tiered.search(queries_.data() + i * d_, r.k, 16);
        ASSERT_EQ(r.hits.size(), serial.size()) << "query " << i;
        for (std::size_t j = 0; j < serial.size(); ++j) {
            EXPECT_EQ(r.hits[j].id, serial[j].id)
                << "query " << i << " rank " << j;
            EXPECT_EQ(r.hits[j].dist, serial[j].dist)
                << "query " << i << " rank " << j;
        }
    }
    EXPECT_EQ(engine->stats().degradedServed, 0u);
}

// --- Autopilot control loop -------------------------------------------

TEST_F(AutopilotFixture, AutopilotRepicksHotSetAfterHotspotFlip)
{
    // Serve a population hammering one center range, run a manual
    // control cycle, then flip the hotspot to a disjoint range: the
    // next cycle must detect the stale hot set (overlap check) and
    // repartition the tier before it returns.
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 0.25, TieredOptions{1, {}});
    const AutopilotPolicy pilot = flipPolicy();
    const auto engine = EngineBuilder(tiered)
                            .searchThreads(2)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 1e-3})
                            .autopilot(pilot)
                            .build();
    ASSERT_NE(engine->autopilot(), nullptr);

    serveHotspot(*engine, 0, 8, 101);
    engine->autopilot()->runControlCycle();
    const auto hot_a = tiered.hotBitmap();

    serveHotspot(*engine, 16, 24, 202);
    const bool repartitioned = engine->autopilot()->runControlCycle();
    EXPECT_TRUE(repartitioned)
        << "hotspot flip must trigger a repartition";
    const auto hot_b = tiered.hotBitmap();
    EXPECT_NE(hot_a, hot_b) << "hot-set membership must move";

    const auto s = engine->stats();
    EXPECT_EQ(s.autopilotCycles, 2u);
    EXPECT_GE(s.autopilotRepartitions, 1u);
    ASSERT_EQ(s.autopilotTrace.size(), 2u);
    EXPECT_TRUE(s.autopilotTrace.back().repartitioned);
    for (const auto &d : s.autopilotTrace) {
        EXPECT_GE(d.rho, pilot.minRho - 1e-9);
        EXPECT_LE(d.rho, pilot.maxRho + 1e-9);
        EXPECT_GE(d.batchCap, 1u);
        EXPECT_LE(d.batchCap, pilot.maxBatchCap);
        EXPECT_GT(d.arrivalRate, 0.0);
    }
    EXPECT_GE(engine->batchCap(), 1u);
    EXPECT_LE(engine->batchCap(), pilot.maxBatchCap);
    EXPECT_EQ(engine->autopilot()->cyclesRun(), 2u);
    EXPECT_EQ(tiered.stats().repartitions, s.autopilotRepartitions);
}

TEST_F(AutopilotFixture, BackgroundControlLoopRepartitionsUnderLoad)
{
    // The control thread at a few-ms interval rebuilds the
    // engine-owned tier while client threads keep submitting across a
    // hotspot flip. Every request must resolve exactly once with hits
    // bit-identical to the flat index, at least one repartition must
    // land, and the engine must tear down with the control thread
    // still running.
    const auto profile = makeProfile();
    const std::size_t k = 10, nprobe = 8;
    constexpr std::size_t kClients = 2, kRound = 32;
    // Round 0 hammers centers [0, 8); every later round the disjoint
    // [16, 24).
    const std::vector<float> phases[2] = {
        hotspotQueries(kRound, 0, 8, 101),
        hotspotQueries(kRound, 16, 24, 202)};
    std::vector<std::vector<vs::SearchHit>> expected[2];
    for (std::size_t p = 0; p < 2; ++p)
        for (std::size_t i = 0; i < kRound; ++i)
            expected[p].push_back(
                index_->search(phases[p].data() + i * d_, k, nprobe));

    AutopilotPolicy pilot = flipPolicy();
    pilot.controlIntervalSeconds = 0.005;
    auto engine = EngineBuilder(*index_)
                      .tieredFromProfile(profile, 0.25)
                      .defaultK(k)
                      .defaultNprobe(nprobe)
                      .searchThreads(2)
                      .batching({.maxBatch = 8, .timeoutSeconds = 1e-3})
                      .autopilot(pilot)
                      .build();

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> resolved{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&] {
            // At least one round on each side of the flip, then keep
            // the load on until the main thread has seen a repartition.
            std::vector<SearchRequest> requests(kRound);
            for (std::size_t round = 0;
                 round < 2 || (!stop.load() && round < 5000); ++round) {
                const std::size_t p = round == 0 ? 0 : 1;
                for (std::size_t i = 0; i < kRound; ++i)
                    requests[i].query = std::span<const float>(
                        phases[p].data() + i * d_, d_);
                auto futures = engine->submitMany(requests);
                for (std::size_t i = 0; i < kRound; ++i) {
                    const SearchResponse r = futures[i].get();
                    EXPECT_EQ(r.disposition, Disposition::kServed);
                    EXPECT_EQ(r.hits, expected[p][i]) << "query " << i;
                    resolved.fetch_add(1);
                }
            }
        });

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (engine->stats().autopilotRepartitions == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stop.store(true);
    for (auto &t : clients)
        t.join();

    // Every future resolved once (a second resolution would throw in
    // the dispatcher), and the engine accounted each one as served.
    const auto s = engine->stats();
    EXPECT_GE(s.autopilotRepartitions, 1u);
    EXPECT_GE(engine->tiered()->stats().repartitions,
              s.autopilotRepartitions);
    EXPECT_GE(resolved.load(), 2 * kClients * kRound);
    EXPECT_EQ(s.submitted, resolved.load());
    EXPECT_EQ(s.served, resolved.load());

    // No stop(): the engine joins the live control thread itself.
    engine.reset();
}

TEST_F(AutopilotFixture, AutopilotCycleWithoutTrafficIsANoOp)
{
    // Below minBatchObservations the cycle must neither repartition
    // nor record a decision — but still count as a cycle.
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 0.25, TieredOptions{1, {}});
    AutopilotPolicy pilot;
    pilot.enable = true;
    pilot.controlIntervalSeconds = 0.0;
    const auto engine = EngineBuilder(tiered).autopilot(pilot).build();

    EXPECT_FALSE(engine->autopilot()->runControlCycle());
    const auto s = engine->stats();
    EXPECT_EQ(s.autopilotCycles, 1u);
    EXPECT_EQ(s.autopilotRepartitions, 0u);
    EXPECT_TRUE(s.autopilotTrace.empty());
}

// --- Tenant-aware control ---------------------------------------------

/** Per-tenant slice of a decision, or nullptr if absent. */
const TenantDecision *
decisionFor(const AutopilotDecision &d, TenantId id)
{
    for (const auto &t : d.tenants)
        if (t.tenant == id)
            return &t;
    return nullptr;
}

TEST_F(AutopilotFixture, AdaptiveSharesTrackDemandInsideClamp)
{
    // Demand split 3:1 between two tenants configured at share 0.5
    // each. One control cycle must move each live share halfway (the
    // default shareSmoothing of 0.5) from 0.5 toward its measured
    // demand fraction — except where the class clamp caps the move —
    // and record the actuation in the decision trace.
    const auto profile = makeProfile();
    TenantPolicy tenants;
    tenants.enable = true;
    tenants.adaptiveShares = true;
    tenants.classes = {{.id = TenantId{1},
                        .share = 0.5,
                        .minShare = 0.1,
                        .maxShare = 0.9},
                       {.id = TenantId{2},
                        .share = 0.5,
                        .minShare = 0.45,
                        .maxShare = 0.9}};
    AutopilotPolicy pilot;
    pilot.enable = true;
    pilot.controlIntervalSeconds = 0.0; // manual cycles only
    pilot.minBatchObservations = 2;
    pilot.queryReservoir = 32;
    pilot.minRho = 0.25;
    const auto engine = EngineBuilder(*index_)
                            .tieredFromProfile(profile, 0.25)
                            .searchThreads(2)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 1e-3})
                            .admissionQueueBound(4096)
                            .tenantIsolation(tenants)
                            .autopilot(pilot)
                            .build();

    std::vector<SearchRequest> requests(128);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].query = query(i % nq_);
        // 96 submissions for tenant 1, 32 for tenant 2.
        requests[i].tenant = TenantId{i % 4 == 3 ? 2u : 1u};
    }
    auto futures = engine->submitMany(requests);
    engine->drain();
    for (auto &f : futures)
        ASSERT_EQ(f.get().disposition, Disposition::kServed);

    engine->autopilot()->runControlCycle();
    const auto s = engine->stats();
    ASSERT_EQ(s.autopilotTrace.size(), 1u);
    const auto &d = s.autopilotTrace.back();
    const auto *t1 = decisionFor(d, TenantId{1});
    const auto *t2 = decisionFor(d, TenantId{2});
    ASSERT_NE(t1, nullptr);
    ASSERT_NE(t2, nullptr);
    EXPECT_GT(t1->arrivalRate, 0.0);
    EXPECT_GT(t1->arrivalRate, t2->arrivalRate);

    // Demand fractions are exactly 0.75 / 0.25 (same window), so the
    // smoothed targets are 0.625 and 0.375 — the latter stopped at
    // its class's minShare clamp.
    EXPECT_NEAR(t1->share, 0.625, 1e-9);
    EXPECT_NEAR(t2->share, 0.45, 1e-9);
    EXPECT_TRUE(t1->shareChanged);
    EXPECT_TRUE(t2->shareChanged);
    EXPECT_FALSE(t1->sloBreached);
    EXPECT_FALSE(t2->sloBreached);
    EXPECT_EQ(d.weightedMissRate, 0.0);

    // The engine actuated the shares, not just the trace: the next
    // stats snapshot reports the live values.
    for (const auto &ts : s.tenants) {
        if (ts.tenant == TenantId{1})
            EXPECT_NEAR(ts.share, 0.625, 1e-9);
        if (ts.tenant == TenantId{2})
            EXPECT_NEAR(ts.share, 0.45, 1e-9);
    }
}

TEST_F(AutopilotFixture, PerTenantSloBreachEscalatesCoverage)
{
    // Tenant 1 stays healthy while tenant 2's tight deadlines expire
    // in a throttled backlog. The cycle must record the breach on
    // tenant 2 alone, fold it into the weighted miss objective, and
    // escalate coverage by at least rhoStep — a single tenant's
    // breach cannot be averaged away by the healthy majority.
    const auto profile = makeProfile();
    TenantPolicy tenants;
    tenants.enable = true;
    tenants.classes = {
        {.id = TenantId{1}, .slo = {.missRateTarget = 0.5}},
        {.id = TenantId{2}, .slo = {.missRateTarget = 0.0}}};
    AutopilotPolicy pilot;
    pilot.enable = true;
    pilot.controlIntervalSeconds = 0.0;
    pilot.minBatchObservations = 2;
    pilot.queryReservoir = 32;
    pilot.minRho = 0.25;
    pilot.maxRho = 0.5;
    const auto engine =
        EngineBuilder(*index_)
            .tieredFromProfile(profile, 0.25)
            .hotShards(1)
            .shardBackend(throttledShardFactory(2e-3))
            .searchThreads(2)
            .batching({.maxBatch = 8, .timeoutSeconds = 1e-3})
            .admissionQueueBound(4096)
            .tenantIsolation(tenants)
            .autopilot(pilot)
            .build();

    // Tenant 1 first (no deadline, all served); tenant 2 lands behind
    // a multi-batch throttled backlog with deadlines that cannot
    // survive it.
    std::vector<SearchRequest> requests(96);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].query = query(i % nq_);
        if (i < 64) {
            requests[i].tenant = TenantId{1};
        } else {
            requests[i].tenant = TenantId{2};
            requests[i].deadlineSeconds = 1e-4;
        }
    }
    auto futures = engine->submitMany(requests);
    engine->drain();
    for (auto &f : futures)
        f.get();

    engine->autopilot()->runControlCycle();
    const auto s = engine->stats();
    ASSERT_EQ(s.autopilotTrace.size(), 1u);
    const auto &d = s.autopilotTrace.back();
    const auto *t1 = decisionFor(d, TenantId{1});
    const auto *t2 = decisionFor(d, TenantId{2});
    ASSERT_NE(t1, nullptr);
    ASSERT_NE(t2, nullptr);
    EXPECT_EQ(t1->missRate, 0.0);
    EXPECT_FALSE(t1->sloBreached);
    EXPECT_GT(t2->missRate, 0.0);
    EXPECT_TRUE(t2->sloBreached);
    // Equal weights: the objective averages the two miss rates.
    EXPECT_GT(d.weightedMissRate, 0.0);
    EXPECT_LT(d.weightedMissRate, t2->missRate);
    // Coverage escalated off the 0.25 floor by at least one step.
    EXPECT_GE(d.rho, 0.25 + pilot.rhoStep - 1e-9);
}

TEST_F(AutopilotFixture, DegradationSkipsNonDegradableTenants)
{
    // Same overload as the degradation test above, but the premium
    // tenant's class opts out: every premium request must be served
    // at its requested depth while the best-effort tenant absorbs the
    // nprobe shaving.
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 1.0,
                       TieredOptions{1, throttledShardFactory(2e-3)});
    DegradationPolicy degrade;
    degrade.enable = true;
    degrade.nprobeFloor = 4;
    degrade.queuePressure = 1.0;
    TenantPolicy tenants;
    tenants.enable = true;
    tenants.classes = {
        {.id = TenantId{1}, .name = "premium", .degradable = false},
        {.id = TenantId{2}, .name = "best-effort"}};
    const auto engine = EngineBuilder(tiered)
                            .searchThreads(2)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 1e-3})
                            .admissionQueueBound(4096)
                            .tenantIsolation(tenants)
                            .degradation(degrade)
                            .build();

    std::vector<SearchRequest> requests(96);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].query = query(i % nq_);
        requests[i].tenant = TenantId{i % 2 == 0 ? 1u : 2u};
        requests[i].nprobe = 16;
    }
    auto futures = engine->submitMany(requests);
    engine->drain();

    std::size_t best_effort_degraded = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto r = futures[i].get();
        ASSERT_EQ(r.disposition, Disposition::kServed);
        if (i % 2 == 0) {
            EXPECT_EQ(r.nprobe, 16u) << "premium request " << i;
            EXPECT_FALSE(r.degraded) << "premium request " << i;
        } else if (r.degraded) {
            ++best_effort_degraded;
        }
    }
    EXPECT_GT(best_effort_degraded, 0u);

    const auto s = engine->stats();
    EXPECT_EQ(s.degradedServed, best_effort_degraded);
    for (const auto &ts : s.tenants) {
        if (ts.tenant == TenantId{1})
            EXPECT_EQ(ts.degradedServed, 0u);
        if (ts.tenant == TenantId{2})
            EXPECT_EQ(ts.degradedServed, best_effort_degraded);
    }
}

// --- Builder validation of the control policies -----------------------

TEST_F(AutopilotFixture, BuilderValidatesControlPolicies)
{
    const auto profile = makeProfile();
    TieredIndex tiered(*index_, profile, 0.25);

    // Autopilot needs tiered serving...
    AutopilotPolicy pilot;
    pilot.enable = true;
    EXPECT_THROW(EngineBuilder(*index_).autopilot(pilot).build(),
                 std::invalid_argument);
    // ...and a caller-owned tier is enough: the autopilot repartitions
    // it directly, so one manual cycle after a flip rebuilds it.
    {
        const auto engine = EngineBuilder(tiered)
                                .searchThreads(2)
                                .batching({.maxBatch = 8,
                                           .timeoutSeconds = 1e-3})
                                .autopilot(flipPolicy())
                                .build();
        serveHotspot(*engine, 0, 8, 101);
        engine->autopilot()->runControlCycle();
        const auto before = tiered.stats().repartitions;
        serveHotspot(*engine, 16, 24, 202);
        EXPECT_TRUE(engine->autopilot()->runControlCycle());
        EXPECT_EQ(tiered.stats().repartitions, before + 1);
    }

    // Degradation knobs.
    DegradationPolicy degrade;
    degrade.enable = true;
    degrade.nprobeFloor = 0;
    EXPECT_THROW(EngineBuilder(*index_).degradation(degrade).build(),
                 std::invalid_argument);
    degrade.nprobeFloor = 4;
    degrade.queuePressure = 0.5;
    EXPECT_THROW(EngineBuilder(*index_).degradation(degrade).build(),
                 std::invalid_argument);

    // Autopilot knobs (policy validation fires before composition).
    const auto bad = [&](auto &&mutate) {
        AutopilotPolicy p;
        p.enable = true;
        mutate(p);
        EXPECT_THROW(EngineBuilder(*index_)
                         .tieredFromProfile(profile, 0.25)
                         .autopilot(p)
                         .build(),
                     std::invalid_argument);
    };
    bad([](AutopilotPolicy &p) { p.controlIntervalSeconds = -1.0; });
    bad([](AutopilotPolicy &p) { p.queryReservoir = 8; });
    bad([](AutopilotPolicy &p) { p.countDecay = 1.5; });
    bad([](AutopilotPolicy &p) {
        p.minRho = 0.8;
        p.maxRho = 0.2;
    });
    bad([](AutopilotPolicy &p) { p.maxBatchCap = 0; });
    bad([](AutopilotPolicy &p) { p.maxShards = 0; });

    // A disabled policy is not validated (all-zero knobs are fine).
    AutopilotPolicy off;
    off.enable = false;
    off.queryReservoir = 0;
    EXPECT_NO_THROW(EngineBuilder(*index_).autopilot(off).build());
}

TEST_F(AutopilotFixture, BuilderComposesEngineOwnedControlPlane)
{
    // tieredFromProfile + autopilot: the engine owns tier and
    // autopilot, and tears them down in order. Manual cycles work and
    // the engine serves normally throughout.
    const auto profile = makeProfile();
    AutopilotPolicy pilot;
    pilot.enable = true;
    pilot.controlIntervalSeconds = 0.0;
    pilot.minBatchObservations = 2;
    pilot.queryReservoir = 32;
    pilot.minRho = 0.25;
    const auto engine = EngineBuilder(*index_)
                            .tieredFromProfile(profile, 0.25)
                            .searchThreads(2)
                            .batching({.maxBatch = 8,
                                       .timeoutSeconds = 1e-3})
                            .autopilot(pilot)
                            .build();
    ASSERT_NE(engine->tiered(), nullptr);
    ASSERT_NE(engine->autopilot(), nullptr);

    std::vector<SearchRequest> requests(nq_);
    for (std::size_t i = 0; i < nq_; ++i)
        requests[i].query = query(i);
    auto futures = engine->submitMany(requests);
    engine->drain();
    for (auto &f : futures)
        EXPECT_EQ(f.get().disposition, Disposition::kServed);

    engine->autopilot()->runControlCycle();
    EXPECT_EQ(engine->stats().autopilotCycles, 1u);
}

} // namespace
} // namespace vlr::core
