#include "core/slo_autopilot.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "core/partitioner.h"
#include "workload/plans.h"

namespace vlr::core
{

namespace
{

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

SloAutopilot::SloAutopilot(RetrievalEngine &engine, TieredIndex &index,
                           AutopilotPolicy policy)
    : engine_(engine), index_(index), policy_(policy),
      lastCycle_(Clock::now())
{
    const std::size_t rows =
        std::max<std::size_t>(policy_.queryReservoir, 16);
    reservoir_.resize(rows * index_.dim());
    counts_.assign(index_.nlist(), 0.0);
    engine_.attachAutopilot(this);
    if (policy_.controlIntervalSeconds > 0.0)
        thread_ = std::thread([this] { controlLoop(); });
}

SloAutopilot::~SloAutopilot()
{
    stop();
}

void
SloAutopilot::stop()
{
    {
        std::lock_guard<std::mutex> lk(stopMutex_);
        stopped_ = true;
    }
    stopCv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
SloAutopilot::observeBatch(const BatchObservation &obs,
                           std::span<const float> queries,
                           std::size_t nq)
{
    const std::size_t d = index_.dim();
    std::lock_guard<std::mutex> lk(obsMutex_);
    // Bounded intake: a stalled control thread must not let the
    // observation buffer grow without limit.
    if (observations_.size() < 4096)
        observations_.push_back(obs);
    const std::size_t rows = reservoir_.size() / d;
    for (std::size_t i = 0; i < nq; ++i) {
        const float *q = queries.data() + i * d;
        ++reservoirSeen_;
        std::size_t slot;
        if (reservoirRows_ < rows) {
            slot = reservoirRows_++;
        } else {
            const std::uint64_t j = rng_.uniformU64(reservoirSeen_);
            if (j >= rows)
                continue;
            slot = static_cast<std::size_t>(j);
        }
        std::copy(q, q + d, reservoir_.begin() + slot * d);
    }
}

bool
SloAutopilot::runControlCycle()
{
    std::lock_guard<std::mutex> cyc(cycleMutex_);
    engine_.noteAutopilotCycle();
    ++cycles_;

    const auto now = Clock::now();
    const double dt = secondsBetween(lastCycle_, now);
    lastCycle_ = now;

    // SLO-attainment window: per-disposition deltas since the last
    // cycle. The expired+rejected fraction is the live counterpart of
    // the paper's attainment signal.
    const EngineStatsSnapshot s = engine_.stats();
    const std::size_t d_sub = s.submitted - lastSubmitted_;
    const std::size_t d_exp = s.expired - lastExpired_;
    const std::size_t d_rej = s.rejected - lastRejected_;
    const std::size_t d_res = s.completed - lastCompleted_;
    lastSubmitted_ = s.submitted;
    lastExpired_ = s.expired;
    lastRejected_ = s.rejected;
    lastCompleted_ = s.completed;

    const double dt_arrival = dt;

    // Per-tenant windowed observations (tenant policy on): the same
    // delta-since-last-cycle treatment as the globals, taken from the
    // per-tenant stat slices. Windows advance even on cycles that
    // bail early below, keeping them aligned with the global window.
    const TenantTable &table = engine_.tenantTable();
    std::vector<TenantDecision> tenant_decisions;
    double weighted_miss = 0.0;
    bool class_breach = false;
    if (table.enabled() && !s.tenants.empty()) {
        double weight_sum = 0.0;
        for (const TenantStatsSnapshot &ts : s.tenants) {
            TenantWindow &w = tenantWindows_[ts.tenant];
            const std::size_t t_sub = ts.submitted - w.lastSubmitted;
            const std::size_t t_res =
                (ts.served + ts.expired + ts.rejected) -
                (w.lastServed + w.lastExpired + w.lastRejected);
            const std::size_t t_miss =
                (ts.expired + ts.rejected) -
                (w.lastExpired + w.lastRejected);
            w.lastSubmitted = ts.submitted;
            w.lastServed = ts.served;
            w.lastExpired = ts.expired;
            w.lastRejected = ts.rejected;

            TenantDecision td;
            td.tenant = ts.tenant;
            td.arrivalRate =
                dt_arrival > 0.0
                    ? static_cast<double>(t_sub) / dt_arrival
                    : 0.0;
            td.missRate = t_res > 0
                              ? static_cast<double>(t_miss) /
                                    static_cast<double>(t_res)
                              : 0.0;
            td.p99Seconds = ts.totalLatency.p99;
            td.share = ts.share;

            const TenantClass &cls = table.resolve(ts.tenant);
            const double tw = table.weight(ts.tenant);
            weight_sum += tw;
            weighted_miss += tw * td.missRate;
            // A tenant with no resolved traffic this window cannot
            // breach: its miss rate is vacuous and its p99 digest is
            // stale.
            if (t_res > 0) {
                td.sloBreached =
                    td.missRate > cls.slo.missRateTarget ||
                    (cls.slo.p99TargetSeconds > 0.0 &&
                     td.p99Seconds > cls.slo.p99TargetSeconds);
                class_breach = class_breach || td.sloBreached;
            }
            tenant_decisions.push_back(td);
        }
        weighted_miss =
            weight_sum > 0.0 ? weighted_miss / weight_sum : 0.0;
    }

    // Live access profile: drain the index's counters and fold them
    // into the exponentially decayed history.
    const std::vector<double> drained = index_.drainAccessCounts();
    double total = 0.0;
    for (std::size_t c = 0; c < counts_.size(); ++c) {
        counts_[c] = policy_.countDecay * counts_[c] + drained[c];
        total += counts_[c];
    }

    std::vector<BatchObservation> obs;
    std::vector<float> queries;
    std::size_t n_rows = 0;
    {
        std::lock_guard<std::mutex> lk(obsMutex_);
        obs.swap(observations_);
        n_rows = reservoirRows_;
        queries.assign(reservoir_.begin(),
                       reservoir_.begin() + n_rows * index_.dim());
    }
    if (obs.size() < policy_.minBatchObservations || n_rows < 2 ||
        total <= 0.0)
        return false;

    const double arrival =
        dt > 0.0 ? static_cast<double>(d_sub) / dt : 0.0;
    const double miss_rate =
        d_res > 0 ? static_cast<double>(d_exp + d_rej) /
                        static_cast<double>(d_res)
                  : 0.0;

    // 1. Fit Eq. 1 from the window's batches. Each query's pool task
    // routes, then builds its LUT and scans its buckets, so a batch's
    // route and scan samples are its wall time split in proportion to
    // the tasks' summed route and scan times. The scan sample is
    // normalized by the miss fraction (clamped away from zero) to
    // recover the full-miss T_LUT; the hot-tier shards are assumed
    // off the critical path.
    std::vector<PlKnot> cq_knots, lut_knots;
    cq_knots.reserve(obs.size());
    lut_knots.reserve(obs.size());
    for (const BatchObservation &o : obs) {
        const auto b =
            static_cast<double>(std::max<std::size_t>(o.batchSize, 1));
        cq_knots.push_back({b, o.routeSeconds});
        const double miss =
            std::clamp(1.0 - o.meanHitRate, 0.05, 1.0);
        lut_knots.push_back({b, o.scanSeconds / miss});
    }
    const SearchPerfModel fit =
        SearchPerfModel::fromKnots(cq_knots, lut_knots);

    // 2./3. Profile + estimator from live counts and the query
    // reservoir.
    const AccessProfile profile = index_.profileFromCounts(counts_);
    const vs::IvfPqFastScanIndex &src = index_.source();
    std::vector<double> work(index_.nlist());
    for (std::size_t c = 0; c < work.size(); ++c)
        work[c] = static_cast<double>(
            src.listSize(static_cast<cluster_id_t>(c)));
    const wl::PlanSet plans =
        wl::PlanSet::build(src.quantizer(), queries, n_rows,
                           engine_.config().defaultNprobe, work);
    const HitRateEstimator estimator(profile, plans);

    // 4. Algorithm 1 against the measured arrival rate: the
    // throughput bound mu is what the LLM actually demands of us, so
    // expectedBatch = ceil(tau_s * mu) doubles as the batch-cap pick.
    const LatencyBoundedPartitioner partitioner(fit, estimator,
                                                profile);
    PartitionInputs in;
    in.sloSearchSeconds = engine_.config().sloSearchSeconds;
    in.epsilon = policy_.epsilon;
    in.kvBaselineBytes = 0.0;
    in.peakLlmThroughput = std::max(arrival, 1.0);
    const PartitionResult pr = partitioner.partition(in);

    const double cur_rho = index_.rho();
    double rho =
        std::clamp(pr.rho, policy_.minRho, policy_.maxRho);
    // SLO-attainment feedback: misses above target escalate coverage
    // one step beyond the model's pick. With tenants the objective is
    // the weight-averaged per-tenant miss rate, and any single tenant
    // breaching its own targets escalates too — a premium tenant's
    // SLO cannot be averaged away by a healthy majority.
    const bool tenants_on =
        table.enabled() && !tenant_decisions.empty();
    const bool slo_breach =
        tenants_on ? weighted_miss > policy_.missRateTarget ||
                         class_breach
                   : miss_rate > policy_.missRateTarget;
    if (slo_breach)
        rho = std::clamp(std::max(rho, cur_rho + policy_.rhoStep),
                         policy_.minRho, policy_.maxRho);

    // 5a. Batch-cap actuation (never stalls: dispatcher reads it
    // atomically at the next formation).
    const std::size_t cap = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(pr.expectedBatch)), 1,
        policy_.maxBatchCap);
    engine_.setBatchCap(cap);

    // 5b. Shard-count re-pick from the byte budget (0 keeps count).
    const std::size_t cur_shards = index_.numShards();
    std::size_t shards = cur_shards;
    if (policy_.shardByteBudget > 0.0) {
        const double hot_bytes = profile.indexBytes(rho);
        shards = std::clamp<std::size_t>(
            static_cast<std::size_t>(
                std::ceil(hot_bytes / policy_.shardByteBudget)),
            1, std::min(policy_.maxShards, index_.maxShards()));
    }

    // 5c. Repartition when coverage moved past the deadband, the
    // shard count changed, or the hot set itself flipped (hotspot
    // drift can move membership while rho stays put). The rebuild runs
    // here, on the cycle's thread; searches keep the old snapshot
    // until the swap, and the dispatcher never waits on cycleMutex_.
    std::vector<cluster_id_t> hot = profile.hotClusters(rho);
    const std::vector<bool> bitmap = index_.hotBitmap();
    std::size_t in_current = 0;
    for (const cluster_id_t c : hot)
        if (bitmap[static_cast<std::size_t>(c)])
            ++in_current;
    const double overlap =
        hot.empty() ? 1.0
                    : static_cast<double>(in_current) /
                          static_cast<double>(hot.size());
    const bool rho_moved =
        std::fabs(rho - cur_rho) > policy_.rhoDeadband;
    const bool shards_moved = shards != cur_shards;
    const bool set_flipped =
        overlap < 1.0 - policy_.hotSetDivergence;

    const bool repartitioned = rho_moved || shards_moved || set_flipped;
    if (repartitioned)
        index_.repartition(std::move(hot), shards);

    // 5d. Adaptive admission shares: move each tenant's live share
    // toward its measured demand fraction (EWMA-smoothed so one noisy
    // window cannot slam the caps), clamped to the class's
    // [minShare, maxShare]. The engine applies the clamp too; doing
    // it here keeps the recorded share honest.
    if (tenants_on && table.adaptiveShares()) {
        double total_arrival = 0.0;
        for (const TenantDecision &td : tenant_decisions)
            total_arrival += td.arrivalRate;
        if (total_arrival > 0.0) {
            for (TenantDecision &td : tenant_decisions) {
                const TenantClass &cls = table.resolve(td.tenant);
                const double demand =
                    td.arrivalRate / total_arrival;
                const double cur = engine_.tenantShare(td.tenant);
                const double next = std::clamp(
                    policy_.shareSmoothing * cur +
                        (1.0 - policy_.shareSmoothing) * demand,
                    cls.minShare, cls.maxShare);
                if (std::fabs(next - cur) > 1e-12) {
                    engine_.setTenantShare(td.tenant, next);
                    td.shareChanged = true;
                }
                td.share = next;
            }
        }
    }

    AutopilotDecision decision;
    decision.arrivalRate = arrival;
    decision.missRate = miss_rate;
    decision.modelRho = pr.rho;
    decision.rho = rho;
    decision.hotShards = shards;
    decision.batchCap = cap;
    decision.repartitioned = repartitioned;
    decision.weightedMissRate = tenants_on ? weighted_miss : miss_rate;
    decision.tenants = std::move(tenant_decisions);
    engine_.recordAutopilotDecision(decision);
    return repartitioned;
}

std::size_t
SloAutopilot::cyclesRun() const
{
    std::lock_guard<std::mutex> lk(cycleMutex_);
    return cycles_;
}

void
SloAutopilot::controlLoop()
{
    std::unique_lock<std::mutex> lk(stopMutex_);
    while (!stopped_) {
        if (stopCv_.wait_for(
                lk,
                std::chrono::duration<double>(
                    policy_.controlIntervalSeconds),
                [this] { return stopped_; }))
            return;
        lk.unlock();
        try {
            runControlCycle();
        } catch (const std::exception &e) {
            logWarn("SloAutopilot: control cycle failed: ", e.what());
        }
        lk.lock();
    }
}

} // namespace vlr::core
