/**
 * @file
 * Executable concurrent retrieval engine — the online counterpart of
 * the event-driven serving simulator.
 *
 * Typed SearchRequests enter a bounded admission queue via submit(),
 * submitMany() or the callback-based submitAsync(); a dispatcher
 * thread forms dynamic batches under the shared BatchPolicy (dispatch
 * when the batch cap fills or the oldest admitted query times out,
 * paper Section IV-B2) and executes each batch as a *real* IVF-PQ
 * fast-scan search fanned out across a ThreadPool with per-query
 * top-k results.
 *
 * The dispatcher is deadline- and priority-aware: a request whose
 * deadline elapses while queued resolves Disposition::kExpiredInQueue
 * without ever entering a search batch, submissions that overflow the
 * bounded queue resolve Disposition::kRejected at admission — with
 * the TenantPolicy enabled a tenant also rejects once it holds its
 * share of the queue, so one tenant's burst cannot starve another
 * (per-tenant dispositions, scanned work and latency digests land in
 * EngineStatsSnapshot::tenants, keyed by SearchRequest::tenant) — and
 * each batch groups compatible requests — identical k, with
 * per-request nprobe passed straight through to the batch search —
 * ordered earliest-deadline-first within a priority class
 * (deadline-free requests follow in admission order). With
 * TenantPolicy::fairService the cross-tenant order is weighted fair
 * queueing instead: batch slots are granted by per-tenant virtual
 * finish times (cost = effective nprobe / weight), bounding each
 * backlogged tenant's long-run share of scanned work by its weight,
 * while EDF still orders requests within a tenant's grant. Under
 * overload the dispatcher
 * can degrade gracefully: when the backlog exceeds the configured
 * pressure it serves batches at a proportionally reduced nprobe
 * (never below the DegradationPolicy floor) instead of letting queued
 * requests expire. Per-request queue/search/total latencies are
 * recorded as per-disposition LatencySummary digests — the same type
 * the simulator reports — so measured percentiles can be compared
 * directly against the analytic perf-model predictions.
 *
 * The engine serves either a flat single-tier index or a TieredIndex
 * (hot/cold partition-aware path). In tiered mode, when an SloAutopilot
 * is attached, each batch's route/scan wall times, routed hit rate and
 * queries are handed to it — the signal of the paper's online-update
 * loop, which the autopilot closes by repartitioning the tier.
 *
 * Engines are constructed through EngineBuilder (engine_builder.h),
 * which validates the EngineConfig and composes flat, caller-owned
 * tiered and engine-owned profile-built tiered serving in one fluent
 * chain.
 */

#ifndef VLR_CORE_ENGINE_RUNTIME_H
#define VLR_CORE_ENGINE_RUNTIME_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "core/batch_policy.h"
#include "core/serving_api.h"
#include "core/tiered_index.h"
#include "vecsearch/ivf_pq_fastscan.h"

namespace vlr::core
{

/**
 * Aggregate engine statistics since construction. Every submitted
 * request is accounted under exactly one disposition once resolved:
 * submitted == served + expired + rejected + still-pending. Latency
 * digests are computed over a bounded uniform reservoir (capacity
 * 65536 per distribution), so a long-running engine's memory stays
 * constant; percentiles become approximate once more requests than
 * that have been resolved. Counters are exact.
 */
struct EngineStatsSnapshot
{
    /** Requests admitted (including ones later expired/rejected). */
    std::size_t submitted = 0;
    /** Requests that rode a search batch (Disposition::kServed). */
    std::size_t served = 0;
    /** Requests whose deadline elapsed while queued. */
    std::size_t expired = 0;
    /** Requests bounced by the bounded admission queue. */
    std::size_t rejected = 0;
    /** Resolved requests: served + expired + rejected. */
    std::size_t completed = 0;
    std::size_t batches = 0;
    double meanBatchSize = 0.0;
    /** Served requests: admission to batch start. */
    LatencySummary queueLatency;
    /** Served requests: batch start to batch completion. */
    LatencySummary searchLatency;
    /** Served requests: admission to completion. */
    LatencySummary totalLatency;
    /** Expired requests: admission to expiry resolution. */
    LatencySummary expiredLatency;
    /** Served requests searched at a degraded (reduced) nprobe. */
    std::size_t degradedServed = 0;
    /** Batches dispatched with at least one degraded request. */
    std::size_t degradedBatches = 0;
    /** Dispatcher batch cap in effect (the autopilot may move it). */
    std::size_t currentBatchCap = 0;
    /** Autopilot control cycles completed. */
    std::size_t autopilotCycles = 0;
    /** Autopilot decisions that launched a repartition. */
    std::size_t autopilotRepartitions = 0;
    /** Recent autopilot decisions, oldest first (bounded history). */
    std::vector<AutopilotDecision> autopilotTrace;
    /** Scanned work served: sum of effective nprobe over served
     *  requests (the quantity weighted fair batching partitions). */
    std::size_t servedWork = 0;
    /**
     * Per-tenant slices keyed by SearchRequest::tenant, ascending;
     * populated only while TenantPolicy is enabled. Within every
     * snapshot the per-tenant counts sum exactly to the global
     * submitted/served/expired/rejected/degradedServed/servedWork
     * totals.
     */
    std::vector<TenantStatsSnapshot> tenants;
};

class EngineBuilder;
class SloAutopilot;

/**
 * Online serving front-end over an IvfPqFastScanIndex or a
 * TieredIndex. Construct through EngineBuilder; the index must
 * outlive the engine. submit()/submitMany()/submitAsync() are
 * thread-safe and may be called from any number of client threads.
 * Destruction drains pending requests.
 */
class RetrievalEngine
{
  public:
    ~RetrievalEngine();

    RetrievalEngine(const RetrievalEngine &) = delete;
    RetrievalEngine &operator=(const RetrievalEngine &) = delete;

    /**
     * Attach the closed-loop SLO autopilot, fed after every tiered
     * batch. Call before submitting queries; the autopilot must
     * outlive the engine unless it is engine-owned (EngineBuilder
     * autopilot path).
     */
    void attachAutopilot(SloAutopilot *autopilot)
    {
        autopilot_ = autopilot;
    }

    /** Tiered index served by this engine, or nullptr in flat mode. */
    const TieredIndex *tiered() const { return tiered_; }

    /** Attached autopilot, or nullptr (manual-interval configurations
     *  step it via SloAutopilot::runControlCycle()). */
    SloAutopilot *autopilot() const { return autopilot_; }

    /**
     * Admit one typed request (the query span is copied). The future
     * resolves when the request is served, expires in the queue, or —
     * immediately — when the bounded queue rejects it; check
     * SearchResponse::disposition. @throws std::runtime_error after
     * shutdown(), std::invalid_argument on a query span shorter than
     * dim().
     */
    std::future<SearchResponse> submit(SearchRequest request);

    /**
     * Admit a span of requests in order. The returned futures match
     * the request order index-for-index regardless of how the
     * dispatcher groups or prioritizes them.
     */
    std::vector<std::future<SearchResponse>>
    submitMany(std::span<const SearchRequest> requests);

    /**
     * Callback-based admission: @p done runs exactly once with the
     * response. Served and expired requests invoke it on the
     * dispatcher thread (keep it cheap; re-submitting from inside the
     * callback is allowed while the engine is accepting), rejected
     * requests invoke it inline on the submitting thread before
     * submitAsync returns. A callback that throws — including a
     * re-submit racing shutdown() — is caught and logged; it never
     * takes the engine down.
     */
    void submitAsync(SearchRequest request,
                     std::function<void(SearchResponse)> done);

    /** Block until every admitted request has resolved. */
    void drain();

    /**
     * Drain, then stop the dispatcher. Idempotent; subsequent submits
     * throw.
     */
    void shutdown();

    bool accepting() const;
    std::size_t pendingQueries() const;
    /** Queued requests for @p tenant (0 unless the tenant policy is
     *  enabled). */
    std::size_t pendingForTenant(TenantId tenant) const;
    EngineStatsSnapshot stats() const;
    const EngineConfig &config() const { return config_; }

    /** Tenant registry resolved from config().tenants. */
    const TenantTable &tenantTable() const { return tenantTable_; }

    /**
     * Live admission share for @p tenant — the configured
     * TenantClass::share unless the adaptive share controller has
     * moved it.
     */
    double tenantShare(TenantId tenant) const;
    /**
     * Re-point @p tenant's live admission share (the autopilot's
     * adaptive-share actuation). Clamped to the tenant's
     * [minShare, maxShare]; takes effect at the next admission.
     */
    void setTenantShare(TenantId tenant, double share);

    /**
     * Dispatcher batch cap currently in effect. Starts at
     * batching.maxBatch; moved by setBatchCap() — the autopilot's
     * batch-cap actuation — without stalling in-flight batches.
     */
    std::size_t batchCap() const
    {
        return batchCap_.load(std::memory_order_relaxed);
    }
    /** Re-point the dispatcher batch cap (clamped to >= 1). */
    void setBatchCap(std::size_t cap);

  private:
    friend class EngineBuilder;
    friend class SloAutopilot;

    using Clock = std::chrono::steady_clock;

    /**
     * @param index flat-mode index (tiered->source() when tiered).
     * @param owned engine-owned TieredIndex (profile-built), or null.
     * @param tiered tiered-mode index (owned.get() or caller-owned),
     *        or null for the flat path.
     * @param config validated configuration.
     */
    RetrievalEngine(const vs::IvfPqFastScanIndex &index,
                    std::unique_ptr<TieredIndex> owned,
                    const TieredIndex *tiered, EngineConfig config);

    struct Pending
    {
        std::vector<float> query;
        std::size_t k = 0;
        std::size_t nprobe = 0;
        int priority = 0;
        TenantId tenant;
        std::uint64_t tag = 0;
        /** Admission order; tie-break within equal priority. */
        std::uint64_t seq = 0;
        Clock::time_point admitted;
        bool hasDeadline = false;
        Clock::time_point deadline;
        std::promise<SearchResponse> promise;
        /** Callback mode (submitAsync): set instead of the promise. */
        std::function<void(SearchResponse)> callback;
    };

    /** Fixed-size uniform reservoir of latency samples. */
    struct Reservoir
    {
        static constexpr std::size_t kCapacity = 65536;
        /** Per-tenant digests use a smaller reservoir. */
        static constexpr std::size_t kTenantCapacity = 8192;
        std::size_t cap;
        std::vector<double> samples;
        std::size_t seen = 0;

        explicit Reservoir(std::size_t capacity = kCapacity)
            : cap(capacity)
        {
        }

        void
        add(double x, Rng &rng)
        {
            ++seen;
            if (samples.size() < cap) {
                samples.push_back(x);
                return;
            }
            const std::uint64_t j = rng.uniformU64(seen);
            if (j < cap)
                samples[j] = x;
        }
    };

    /** Per-tenant accounting bucket (guarded by statsMutex_). */
    struct TenantCounters
    {
        std::size_t submitted = 0;
        std::size_t served = 0;
        std::size_t expired = 0;
        std::size_t rejected = 0;
        std::size_t degradedServed = 0;
        /** Sum of effective nprobe over served requests. */
        std::size_t servedWork = 0;
        Reservoir queueSamples{Reservoir::kTenantCapacity};
        Reservoir totalSamples{Reservoir::kTenantCapacity};
    };

    /** Build a Pending from a request (validates the span length). */
    Pending makePending(const SearchRequest &request) const;
    /**
     * Queued-slot bound for one tenant under the TenantPolicy: its
     * live share of batching.maxQueue, at least 1. Caller holds
     * statsMutex_ (live shares are guarded by it).
     */
    std::size_t tenantQueueBound(TenantId tenant) const;
    /** Live share for @p tenant; caller holds statsMutex_. */
    double liveShareLocked(TenantId tenant) const;
    /** Queue one Pending or resolve it kRejected; returns future. */
    void admit(Pending p);
    /** Fulfil promise or invoke callback. */
    static void resolve(Pending &p, SearchResponse &&r);

    /**
     * Remove every queued request whose deadline has elapsed at
     * @p now. Caller holds mutex_; resolution happens outside it.
     */
    std::vector<Pending> takeExpiredLocked(Clock::time_point now);
    /** Resolve a swept batch of expired requests (no lock held). */
    void resolveExpired(std::vector<Pending> expired);

    /**
     * Indices (into queue_) of the next batch, capped at the current
     * batch cap. Caller holds mutex_.
     *
     * Default order: requests sharing the lead's k, in EDF order —
     * priority desc, then deadlined requests by earliest deadline,
     * then deadline-free requests in admission order.
     *
     * With TenantPolicy::fairService the cross-tenant order is
     * weighted fair queueing: slots go to the tenant with the
     * smallest would-be virtual finish time (start = max(engine
     * virtual time, tenant's last finish); finish = start + effective
     * nprobe / effective weight; ties to the smaller tenant id), and
     * the EDF order above applies within each tenant's grant. The
     * selection is speculative — it simulates virtual time on local
     * copies; chargeGroupLocked() commits the charges when the batch
     * actually dispatches, so a group that is formed but then skipped
     * (cap not met, not forced) charges nothing.
     */
    std::vector<std::size_t> formGroupLocked() const;
    /**
     * Commit the WFQ virtual-time charges for a group that is about
     * to dispatch, replaying grants in group order (deterministically
     * identical to the simulation in formGroupLocked). No-op unless
     * fair service is on. Caller holds mutex_.
     */
    void chargeGroupLocked(const std::vector<std::size_t> &group);

    void dispatcherLoop();
    /** @param backlog requests still queued when the batch left. */
    void executeBatch(std::vector<Pending> batch, std::size_t backlog);

    /** Autopilot bookkeeping (called by the friend SloAutopilot). */
    void noteAutopilotCycle();
    void recordAutopilotDecision(AutopilotDecision decision);

    /**
     * Index restored from an on-disk artifact by
     * EngineBuilder::fromArtifact, or null when the caller owns the
     * index. Declared first so it outlives every member referencing
     * index_ (members are destroyed in reverse declaration order).
     */
    std::shared_ptr<const vs::IvfPqFastScanIndex> ownedIndex_;
    /** Flat-mode index (tiered_->source() when tiered). */
    const vs::IvfPqFastScanIndex &index_;
    /** Tiered index built by EngineBuilder::tieredFromProfile. */
    std::unique_ptr<TieredIndex> ownedTiered_;
    /** Tiered-mode index; nullptr when serving the flat path. */
    const TieredIndex *tiered_ = nullptr;
    SloAutopilot *autopilot_ = nullptr;
    EngineConfig config_;
    /** Validated registry over config_.tenants (immutable). */
    TenantTable tenantTable_;
    ThreadPool pool_;
    /** Live dispatcher batch cap (autopilot actuation target). */
    std::atomic<std::size_t> batchCap_{1};
    /** Construction time; AutopilotDecision::atSeconds origin. */
    Clock::time_point started_;

    mutable std::mutex mutex_;
    std::condition_variable cvDispatch_;
    std::condition_variable cvIdle_;
    std::deque<Pending> queue_;
    /** Queued requests per tenant; maintained only when
     *  config_.tenants.enable (guarded by mutex_). */
    std::map<TenantId, std::size_t> queuedPerTenant_;
    /** Adaptive-share overrides (guarded by statsMutex_ so stats()
     *  and the autopilot's share actuation never take mutex_); absent
     *  tenants use their TenantClass::share. */
    std::map<TenantId, double> liveShare_;
    /**
     * Weighted-fair-queueing state (guarded by mutex_): the engine
     * virtual time — the start tag of the last granted slot — and
     * each tenant's last virtual finish time. A tenant whose finish
     * lags the virtual time (it went idle) restarts at the virtual
     * time, so idle periods are not banked as credit.
     */
    double virtualTime_ = 0.0;
    std::map<TenantId, double> virtualFinish_;
    std::uint64_t nextSeq_ = 0;
    bool accepting_ = true;
    bool stop_ = false;
    bool flushing_ = false;
    bool batchInFlight_ = false;

    mutable std::mutex statsMutex_;
    Rng statsRng_{0x5eed11fe};
    Reservoir queueSamples_;
    Reservoir searchSamples_;
    Reservoir totalSamples_;
    Reservoir expiredSamples_;
    RunningStats batchSizes_;
    std::size_t submitted_ = 0;
    std::size_t served_ = 0;
    std::size_t expired_ = 0;
    std::size_t rejected_ = 0;
    std::size_t batches_ = 0;
    std::size_t degradedServed_ = 0;
    std::size_t degradedBatches_ = 0;
    /** Sum of effective nprobe over served requests. */
    std::size_t servedWork_ = 0;
    std::size_t autopilotCycles_ = 0;
    std::size_t autopilotRepartitions_ = 0;
    static constexpr std::size_t kTraceCapacity = 256;
    std::deque<AutopilotDecision> decisionTrace_;
    /** Per-tenant accounting; populated only when
     *  config_.tenants.enable (guarded by statsMutex_). */
    std::map<TenantId, TenantCounters> tenantStats_;

    std::thread dispatcher_;

    /**
     * Engine-owned autopilot for the EngineBuilder autopilot path
     * (declared last so it is destroyed first — before ownedTiered_,
     * which its control thread repartitions; the destructor also stops
     * it explicitly right after the dispatcher is joined, since the
     * dispatcher feeds it).
     */
    std::unique_ptr<SloAutopilot> ownedAutopilot_;
};

} // namespace vlr::core

#endif // VLR_CORE_ENGINE_RUNTIME_H
