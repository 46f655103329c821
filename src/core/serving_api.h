/**
 * @file
 * Request-centric serving API types (paper Table I: the SLO belongs to
 * the request, not the engine).
 *
 * A SearchRequest carries everything one query needs — ranking
 * parameters (k, nprobe), an optional queueing deadline, a scheduling
 * priority and an opaque client tag — so the engine can enforce
 * latency at admission instead of auditing it after the fact. A
 * SearchResponse reports the hits together with per-stage timings and
 * a Disposition saying how the request left the engine: served by a
 * batch, expired while queued, or rejected by the bounded admission
 * queue. EngineConfig is the single validated engine-wide
 * configuration the EngineBuilder assembles — dispatcher batching,
 * overload degradation and the closed-loop SLO autopilot are nested
 * policies inside it, all checked by one validate(); per-request
 * parameters default to its values when a request leaves them unset.
 */

#ifndef VLR_CORE_SERVING_API_H
#define VLR_CORE_SERVING_API_H

#include <compare>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/batch_policy.h"
#include "core/shard_backend.h"
#include "vecsearch/ivf_pq_fastscan.h"

namespace vlr::core
{

/**
 * Typed tenant identity. Requests carry it in SearchRequest::tenant;
 * everything tenant-scoped — TenantPolicy classes, weighted fair
 * batching, EngineStatsSnapshot::tenants, the autopilot's per-tenant
 * targets and the workload harness — keys on it. Id 0 is the
 * anonymous tenant: requests that never set an identity all land in
 * its bucket.
 *
 * TenantId replaces the former dual use of the opaque
 * SearchRequest::tag as a tenant key; tag is a free-form annotation
 * again (echoed verbatim in the response, never interpreted).
 */
struct TenantId
{
    std::uint64_t value = 0;

    /** True for the id-0 bucket requests without an identity use. */
    constexpr bool
    anonymous() const
    {
        return value == 0;
    }

    friend constexpr auto operator<=>(const TenantId &,
                                      const TenantId &) = default;
};

/** How a submitted request left the engine. Every request resolves
 *  with exactly one disposition. */
enum class Disposition
{
    /** Rode a search batch; hits and stage timings are populated. */
    kServed,
    /** Deadline elapsed while queued; resolved by the dispatcher
     *  without ever entering a search batch. */
    kExpiredInQueue,
    /** Bounced at admission by the bounded queue (BatchPolicy::
     *  maxQueue); resolved immediately on the submitting thread. */
    kRejected,
};

/** Short stable name for logs and bench tables. */
const char *dispositionName(Disposition d);

/**
 * One typed query submission. The query span is copied at submit();
 * the request object itself need not outlive the call.
 */
struct SearchRequest
{
    /** Query vector (at least dim() floats; copied at submit). */
    std::span<const float> query;
    /** Results wanted; 0 means the engine's defaultK. */
    std::size_t k = 0;
    /** IVF lists probed; 0 means the engine's defaultNprobe. */
    std::size_t nprobe = 0;
    /**
     * Queueing deadline in seconds from admission; <= 0 means no
     * deadline. A request still queued when its deadline elapses
     * resolves kExpiredInQueue instead of burning a search slot.
     */
    double deadlineSeconds = 0.0;
    /**
     * Dispatch priority: higher-priority requests lead batch
     * formation. Equal priorities dispatch in admission order; a
     * sustained stream of higher-priority work can delay lower
     * priorities past the batch timeout. With weighted fair batching
     * (TenantPolicy::fairService) priority orders requests *within*
     * the tenant; across tenants, service order is the fair-queueing
     * grant.
     */
    int priority = 0;
    /**
     * Tenant identity (TenantPolicy keys admission, fair batching and
     * accounting on it). Leave default for untenanted traffic.
     */
    TenantId tenant;
    /**
     * Opaque client tag echoed verbatim in the response — a free-form
     * annotation (request id, correlation token), never interpreted
     * by the engine. Tenant identity moved to `tenant`.
     */
    std::uint64_t tag = 0;
};

/** Outcome of one request: disposition + hits + per-stage timings. */
struct SearchResponse
{
    Disposition disposition = Disposition::kServed;
    /**
     * True when overload degradation served this request at a
     * shallower nprobe than requested (see DegradationPolicy);
     * `nprobe` below reports the effective probe depth actually
     * searched.
     */
    bool degraded = false;
    /** Top-k hits; empty unless disposition == kServed. */
    std::vector<vs::SearchHit> hits;
    /** Admission to batch start (served), to expiry resolution
     *  (expired), or 0 (rejected). */
    double queueSeconds = 0.0;
    /** Batch start to batch completion; 0 unless served. */
    double searchSeconds = 0.0;
    /** Admission to resolution. */
    double totalSeconds = 0.0;
    /** Size of the batch this request rode in; 0 unless served. */
    std::size_t batchSize = 0;
    /** Effective ranking parameters after defaulting. */
    std::size_t k = 0;
    std::size_t nprobe = 0;
    /** Tenant identity from the request. */
    TenantId tenant;
    /** Client tag from the request. */
    std::uint64_t tag = 0;

    bool
    served() const
    {
        return disposition == Disposition::kServed;
    }
};

/**
 * Graceful search degradation under overload (the alternative to
 * letting queued requests expire): when the dispatch backlog exceeds
 * `queuePressure` batch caps, batches are searched at a proportionally
 * reduced nprobe, never below `nprobeFloor`. Responses flag the
 * reduction (SearchResponse::degraded) and the engine counts every
 * event (EngineStatsSnapshot::degradedServed / degradedBatches). With
 * `enable` false the engine always searches the requested depth and
 * batched results stay bit-identical to serial per-request search.
 */
struct DegradationPolicy
{
    bool enable = false;
    /** Lowest nprobe degradation may serve (>= 1). A request asking
     *  for less than the floor is served as requested. */
    std::size_t nprobeFloor = 4;
    /**
     * Backlog-to-batch-cap ratio where degradation starts (>= 1).
     * At ratio r >= queuePressure the effective nprobe scales by
     * queuePressure / r — the deeper the overload, the shallower the
     * search.
     */
    double queuePressure = 2.0;
};

/** Per-tenant SLO targets consumed by the tenant-aware autopilot. */
struct TenantSloTarget
{
    /** Tolerated (expired + rejected) / resolved fraction per control
     *  window before the autopilot escalates on this tenant's behalf
     *  (in [0, 1]). */
    double missRateTarget = 0.01;
    /** p99 total-latency bound in seconds; 0 disables the latency
     *  target. */
    double p99TargetSeconds = 0.0;
};

/**
 * One tenant's complete service contract — the single validated spec
 * that replaced the former parallel share maps. Everything the engine
 * and autopilot know about a tenant lives here:
 *
 *  - `share` / `minShare` / `maxShare`: admission — the fraction of
 *    BatchPolicy::maxQueue the tenant may occupy (the adaptive share
 *    controller refits the live share inside [minShare, maxShare]);
 *  - `weight`: service — its weighted-fair-queueing weight in batch
 *    formation (long-run scanned-work share is proportional to it
 *    while the tenant stays backlogged);
 *  - `slo`: the autopilot targets;
 *  - `degradable`: whether overload nprobe degradation may shave this
 *    tenant's requests (premium classes opt out, so best-effort
 *    tenants absorb degradation first).
 */
struct TenantClass
{
    TenantId id;
    /** Label for logs and bench tables (optional). */
    std::string name;
    /** Admission share of BatchPolicy::maxQueue, in (0, 1]. */
    double share = 1.0;
    /** Adaptive-share clamp: the share controller never moves the
     *  live share outside [minShare, maxShare] (0 < min <= share <=
     *  max <= 1). */
    double minShare = 0.05;
    double maxShare = 1.0;
    /** WFQ service weight (> 0); see TenantPolicy::weightFloor. */
    double weight = 1.0;
    /** Per-tenant autopilot targets. */
    TenantSloTarget slo;
    /** Eligible for overload nprobe degradation. */
    bool degradable = true;

    /** @throws std::invalid_argument naming the offending field. */
    void validate(const char *what) const;
};

/**
 * Multi-tenant service policy: typed per-tenant admission, weighted
 * fair batching and accounting. When enabled, a request's
 * SearchRequest::tenant selects its TenantClass (`classes` by id,
 * else `defaults`):
 *
 *  - **Admission**: a tenant may occupy at most `share *
 *    BatchPolicy::maxQueue` queued slots (always at least one) —
 *    submissions beyond that resolve kRejected even while the global
 *    queue has room, so one tenant's burst cannot starve the others
 *    out of the admission queue. Requires a bounded queue.
 *  - **Service** (`fairService`): batch slots are granted by weighted
 *    fair queueing over virtual finish times, so a tenant's long-run
 *    share of *scanned work* (sum of effective nprobe) is bounded by
 *    its weight — not just its queue occupancy. EDF still orders
 *    requests within a tenant's grant. Off, batch formation is the
 *    global priority/EDF order.
 *  - **Accounting**: per-tenant disposition counts, scanned work and
 *    latency digests (EngineStatsSnapshot::tenants) that sum exactly
 *    to the global totals in every snapshot.
 *
 * Tenant ids should come from a small, stable set while the policy is
 * enabled: the engine tracks one accounting bucket per distinct id
 * for its lifetime.
 */
struct TenantPolicy
{
    bool enable = false;
    /** Service class applied to tenants without a registered class
     *  (its id and name are ignored). */
    TenantClass defaults;
    /** Registered per-tenant classes (unique ids). */
    std::vector<TenantClass> classes;
    /** Weighted fair batching over EDF (see above). */
    bool fairService = false;
    /**
     * Starvation-freedom floor: every tenant's effective WFQ weight
     * is at least this (in (0, 1]), so even a zero-ish-weight tenant
     * makes progress while backlogged.
     */
    double weightFloor = 0.05;
    /**
     * Let the autopilot's share controller refit each tenant's live
     * admission share from its measured arrival rate every control
     * cycle, clamped to the class's [minShare, maxShare]. Requires
     * the autopilot.
     */
    bool adaptiveShares = false;
};

/**
 * Validated read-only view of a TenantPolicy — the registry the
 * dispatcher, autopilot and benches resolve tenant identities
 * against. resolve() never fails: unknown tenants get the defaults
 * class.
 */
class TenantTable
{
  public:
    TenantTable() = default;
    /** @p policy must have passed EngineConfig::validate(). */
    explicit TenantTable(const TenantPolicy &policy);

    bool enabled() const { return policy_.enable; }
    bool fairService() const
    {
        return policy_.enable && policy_.fairService;
    }
    bool adaptiveShares() const
    {
        return policy_.enable && policy_.adaptiveShares;
    }

    /** Registered class for @p id, or nullptr. */
    const TenantClass *find(TenantId id) const;
    /** Registered class for @p id, else the defaults class. */
    const TenantClass &resolve(TenantId id) const;
    /** Effective WFQ weight: max(resolve(id).weight, weightFloor). */
    double weight(TenantId id) const;
    const std::vector<TenantClass> &classes() const
    {
        return policy_.classes;
    }

  private:
    TenantPolicy policy_;
    std::map<TenantId, std::size_t> byId_;
};

/**
 * Per-tenant slice of EngineStatsSnapshot (populated only while
 * TenantPolicy is enabled). Counters are exact; latency digests are
 * reservoir-sampled like the global ones (capacity 8192 per tenant).
 */
struct TenantStatsSnapshot
{
    TenantId tenant;
    std::size_t submitted = 0;
    std::size_t served = 0;
    std::size_t expired = 0;
    std::size_t rejected = 0;
    /** Served at a degraded (reduced) nprobe. */
    std::size_t degradedServed = 0;
    /**
     * Scanned work served on this tenant's behalf: the sum of
     * effective nprobe over its served requests — the quantity WFQ
     * bounds by the tenant's weight.
     */
    std::size_t servedWork = 0;
    /** Live admission share (the adaptive controller may have moved
     *  it off the configured TenantClass::share). */
    double share = 1.0;
    /** Effective WFQ weight (after the weight floor). */
    double weight = 1.0;
    /** Served requests: admission to batch start. */
    LatencySummary queueLatency;
    /** Served requests: admission to completion. */
    LatencySummary totalLatency;

    /** (expired + rejected) / resolved for this tenant. */
    double
    missRate() const
    {
        const std::size_t resolved = served + expired + rejected;
        return resolved == 0
                   ? 0.0
                   : static_cast<double>(expired + rejected) /
                         static_cast<double>(resolved);
    }
};

/**
 * Closed-loop SLO autopilot knobs (paper Figs. 11/16 run live): the
 * SloAutopilot periodically fits a SearchPerfModel from observed
 * per-batch latencies, rebuilds the access profile from live probe
 * counts, re-runs the LatencyBoundedPartitioner against the measured
 * arrival rate, and actuates the batch cap, then rho and hot-shard
 * count by repartitioning the served TieredIndex (one snapshot swap,
 * rebuilt on the control thread). The per-disposition stats
 * (expired + rejected rates) are the SLO-attainment feedback: misses
 * above `missRateTarget` escalate coverage beyond the model's pick.
 */
struct AutopilotPolicy
{
    bool enable = false;
    /**
     * Control-cycle period (> 0); 0 disables the background control
     * thread so tests and benches can step cycles deterministically
     * via SloAutopilot::runControlCycle().
     */
    double controlIntervalSeconds = 0.25;
    /** Batch observations required before a cycle fits and acts. */
    std::size_t minBatchObservations = 4;
    /** Recent queries kept (reservoir-sampled) for live hit-rate
     *  estimation (>= 16 when enabled). */
    std::size_t queryReservoir = 256;
    /** Exponential decay applied to accumulated access counts each
     *  cycle (in [0, 1]; lower forgets faster). */
    double countDecay = 0.5;
    /** Queuing factor eps of Eq. 3 fed to the partitioner. */
    double epsilon = 1.0;
    /** Coverage clamp applied to every autopilot pick. */
    double minRho = 0.0;
    double maxRho = 1.0;
    /** Coverage moves smaller than this do not trigger a rebuild. */
    double rhoDeadband = 0.02;
    /** Coverage escalation step while misses exceed the target. */
    double rhoStep = 0.05;
    /**
     * Tolerated (expired + rejected) / resolved fraction per control
     * window; above it the autopilot escalates coverage.
     */
    double missRateTarget = 0.01;
    /** Fraction of the re-picked hot set that may be missing from the
     *  current placement before a rebuild triggers (hotspot flips move
     *  membership without moving rho). */
    double hotSetDivergence = 0.25;
    /** Batch-cap actuation clamp (>= 1). */
    std::size_t maxBatchCap = 256;
    /**
     * Target resident bytes per hot shard; the autopilot re-picks the
     * shard count as ceil(hot bytes / budget) up to `maxShards`. 0
     * keeps the construction-time shard count.
     */
    double shardByteBudget = 0.0;
    /** Shard-count actuation clamp (>= 1; also capped by the tiered
     *  index's own maxShards). */
    std::size_t maxShards = 8;
    /**
     * Adaptive-share smoothing (in [0, 1)): each cycle the share
     * controller moves a tenant's live admission share toward its
     * measured demand fraction by a (1 - shareSmoothing) step, so one
     * noisy window cannot slam the caps around. Only used with
     * TenantPolicy::adaptiveShares.
     */
    double shareSmoothing = 0.5;
};

/**
 * One tenant's slice of an autopilot control decision: what the
 * controller measured for the tenant over the window and the
 * admission share it actuated.
 */
struct TenantDecision
{
    TenantId tenant;
    /** Measured submissions/s over the control window. */
    double arrivalRate = 0.0;
    /** (expired + rejected) / resolved over the control window. */
    double missRate = 0.0;
    /** p99 total latency of served requests (running digest). */
    double p99Seconds = 0.0;
    /** Live admission share after this cycle. */
    double share = 0.0;
    /** True when the share controller moved the share this cycle. */
    bool shareChanged = false;
    /** True when this tenant's own SLO targets were in breach. */
    bool sloBreached = false;
};

/**
 * One autopilot control decision, surfaced through
 * EngineStatsSnapshot::autopilotTrace (bounded history) so operators
 * and benches can plot chosen rho / shards / batch cap over time.
 */
struct AutopilotDecision
{
    /** Seconds since engine construction. */
    double atSeconds = 0.0;
    /** Measured submissions/s over the control window. */
    double arrivalRate = 0.0;
    /** (expired + rejected) / resolved over the control window. */
    double missRate = 0.0;
    /** Coverage the partitioner picked from the fitted models. */
    double modelRho = 0.0;
    /** Actuated coverage after SLO-attainment escalation + clamps. */
    double rho = 0.0;
    /** Actuated hot-shard count. */
    std::size_t hotShards = 0;
    /** Actuated dispatcher batch cap. */
    std::size_t batchCap = 0;
    /** True when this decision launched a background repartition. */
    bool repartitioned = false;
    /**
     * Weighted per-tenant miss objective the cycle optimized
     * (sum_t w_t * miss_t / sum_t w_t); equals missRate when the
     * tenant policy is off.
     */
    double weightedMissRate = 0.0;
    /** Per-tenant measurements + share actuation (tenant policy on). */
    std::vector<TenantDecision> tenants;
};

/**
 * Engine-wide configuration assembled by EngineBuilder — the single
 * config surface: batching, degradation and autopilot are nested
 * policies validated together by one validate(). Per-request k/nprobe
 * override the defaults here.
 */
struct EngineConfig
{
    /** Dispatcher policy shared with ServingConfig (cap, timeout and
     *  the bounded admission queue). */
    BatchPolicy batching{.maxBatch = 64, .timeoutSeconds = 2e-3};
    /** Overload nprobe degradation (off by default). */
    DegradationPolicy degrade;
    /** Weighted per-tenant admission + accounting (off by default). */
    TenantPolicy tenants;
    /** Closed-loop SLO autopilot (off by default; requires a tiered
     *  engine — see EngineBuilder::build). */
    AutopilotPolicy autopilot;
    /** Results per query for requests that leave k unset. */
    std::size_t defaultK = 10;
    /** Probed IVF lists for requests that leave nprobe unset. */
    std::size_t defaultNprobe = 16;
    /** Search worker threads: 1 = batch executes inline, 0 = size the
     *  pool to the hardware (ThreadPool::hardwareConcurrency()). */
    std::size_t numSearchThreads = 4;
    /** Pin search workers round-robin across cores (Linux;
     *  best-effort elsewhere) so per-thread caches, stat shards and
     *  epoch slots stay core-resident. */
    bool pinSearchThreads = false;
    /**
     * Retrieval-stage SLO (Table I): the search-latency budget
     * (PartitionInputs::sloSearchSeconds) the SloAutopilot's
     * partitioner plans coverage against.
     */
    double sloSearchSeconds = 0.150;
    /**
     * Hot shards for engines that build their own TieredIndex
     * (EngineBuilder::tieredFromProfile); ignored when serving a
     * caller-owned index or the flat path.
     */
    std::size_t numHotShards = 1;
    /**
     * Per-shard backend factory for the same path; null means the
     * default fast-scan view of the source.
     */
    ShardBackendFactory shardBackendFactory;

    /** @throws std::invalid_argument on an unusable configuration. */
    void validate() const;
};

} // namespace vlr::core

#endif // VLR_CORE_SERVING_API_H
