#include "core/engine_runtime.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include <cmath>

#include "common/log.h"
#include "core/slo_autopilot.h"

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

std::chrono::steady_clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
}

} // namespace

RetrievalEngine::RetrievalEngine(const TieredIndex &tiered,
                                 std::unique_ptr<TieredIndex> owned,
                                 EngineConfig config)
    : ownedTiered_(std::move(owned)), tiered_(tiered),
      config_(std::move(config)), tenantTable_(config_.tenants),
      pool_(ThreadPoolOptions{.numThreads = config_.numSearchThreads,
                              .pinThreads = config_.pinSearchThreads}),
      batchCap_(config_.batching.maxBatch), started_(Clock::now())
{
    config_.validate();
    dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

RetrievalEngine::~RetrievalEngine()
{
    // Dispatcher first — it feeds observeBatch(), so the autopilot
    // must outlive it. A control cycle racing shutdown only reads
    // stats() and actuates the cap, both safe on a drained engine.
    shutdown();
    ownedAutopilot_.reset();
}

RetrievalEngine::Pending
RetrievalEngine::makePending(const SearchRequest &request) const
{
    const std::size_t d = tiered_.dim();
    if (request.query.size() < d)
        throw std::invalid_argument(
            "RetrievalEngine: query span shorter than dim()");
    Pending p;
    p.query.assign(request.query.begin(), request.query.begin() + d);
    p.k = request.k == 0 ? config_.defaultK : request.k;
    p.nprobe =
        request.nprobe == 0 ? config_.defaultNprobe : request.nprobe;
    p.priority = request.priority;
    p.tenant = request.tenant;
    p.tag = request.tag;
    p.admitted = Clock::now();
    if (request.deadlineSeconds > 0.0) {
        p.hasDeadline = true;
        p.deadline = p.admitted + toDuration(request.deadlineSeconds);
    }
    return p;
}

void
RetrievalEngine::resolve(Pending &p, SearchResponse &&r)
{
    if (!p.callback) {
        p.promise.set_value(std::move(r));
        return;
    }
    // User callbacks run on the dispatcher thread (or the submitting
    // thread for rejections); a throwing callback must not take the
    // whole engine down via std::terminate.
    try {
        p.callback(std::move(r));
    } catch (const std::exception &e) {
        logWarn("RetrievalEngine: submitAsync callback threw: ",
                e.what());
    } catch (...) {
        logWarn("RetrievalEngine: submitAsync callback threw");
    }
}

double
RetrievalEngine::liveShareLocked(TenantId tenant) const
{
    const auto it = liveShare_.find(tenant);
    return it != liveShare_.end() ? it->second
                                  : tenantTable_.resolve(tenant).share;
}

std::size_t
RetrievalEngine::tenantQueueBound(TenantId tenant) const
{
    const auto bound = static_cast<std::size_t>(
        liveShareLocked(tenant) *
        static_cast<double>(config_.batching.maxQueue));
    return std::max<std::size_t>(bound, 1);
}

double
RetrievalEngine::tenantShare(TenantId tenant) const
{
    std::lock_guard<std::mutex> slk(statsMutex_);
    return liveShareLocked(tenant);
}

void
RetrievalEngine::setTenantShare(TenantId tenant, double share)
{
    const TenantClass &c = tenantTable_.resolve(tenant);
    share = std::clamp(share, c.minShare, c.maxShare);
    std::lock_guard<std::mutex> slk(statsMutex_);
    liveShare_[tenant] = share;
}

void
RetrievalEngine::admit(Pending p)
{
    const bool tenants = config_.tenants.enable;
    bool reject = false;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!accepting_)
            throw std::runtime_error(
                "RetrievalEngine: submit after shutdown");
        // Count before the dispatcher can see the request, so stats()
        // never observes completed > submitted. statsMutex_ nests
        // inside mutex_ only here; no path takes them reversed.
        const std::size_t depth = queue_.size();
        reject = config_.batching.maxQueue != 0 &&
                 depth >= config_.batching.maxQueue;
        {
            std::lock_guard<std::mutex> slk(statsMutex_);
            // Per-tenant admission: a tenant already holding its live
            // share of the bounded queue rejects even while the
            // global queue has room, so the remaining slots stay
            // reachable for the other tenants. Decided under
            // statsMutex_ because the adaptive controller moves live
            // shares under it.
            if (tenants && !reject)
                reject = queuedPerTenant_[p.tenant] >=
                         tenantQueueBound(p.tenant);
            ++submitted_;
            if (reject)
                ++rejected_;
            if (tenants) {
                TenantCounters &tc = tenantStats_[p.tenant];
                ++tc.submitted;
                if (reject)
                    ++tc.rejected;
            }
        }
        if (!reject) {
            p.seq = nextSeq_++;
            if (tenants)
                ++queuedPerTenant_[p.tenant];
            queue_.push_back(std::move(p));
        }
    }
    if (reject) {
        SearchResponse r;
        r.disposition = Disposition::kRejected;
        r.k = p.k;
        r.nprobe = p.nprobe;
        r.tenant = p.tenant;
        r.tag = p.tag;
        resolve(p, std::move(r));
        return;
    }
    cvDispatch_.notify_all();
}

std::future<SearchResponse>
RetrievalEngine::submit(SearchRequest request)
{
    Pending p = makePending(request);
    auto fut = p.promise.get_future();
    admit(std::move(p));
    return fut;
}

std::vector<std::future<SearchResponse>>
RetrievalEngine::submitMany(std::span<const SearchRequest> requests)
{
    // Validate every request before admitting any, so a bad span in
    // the middle of the batch cannot strand already-admitted requests
    // behind discarded futures.
    std::vector<Pending> pendings;
    pendings.reserve(requests.size());
    for (const SearchRequest &request : requests)
        pendings.push_back(makePending(request));
    std::vector<std::future<SearchResponse>> futures;
    futures.reserve(pendings.size());
    for (Pending &p : pendings) {
        futures.push_back(p.promise.get_future());
        admit(std::move(p));
    }
    return futures;
}

void
RetrievalEngine::submitAsync(SearchRequest request,
                             std::function<void(SearchResponse)> done)
{
    Pending p = makePending(request);
    p.callback = std::move(done);
    admit(std::move(p));
}

void
RetrievalEngine::setBatchCap(std::size_t cap)
{
    batchCap_.store(std::max<std::size_t>(cap, 1),
                    std::memory_order_relaxed);
    cvDispatch_.notify_all();
}

void
RetrievalEngine::drain()
{
    std::unique_lock<std::mutex> lk(mutex_);
    flushing_ = true;
    cvDispatch_.notify_all();
    cvIdle_.wait(lk, [this] { return queue_.empty() && !batchInFlight_; });
    flushing_ = false;
    cvDispatch_.notify_all();
}

void
RetrievalEngine::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        accepting_ = false;
    }
    if (dispatcher_.joinable()) {
        drain();
        {
            std::lock_guard<std::mutex> lk(mutex_);
            stop_ = true;
        }
        cvDispatch_.notify_all();
        dispatcher_.join();
    }
}

bool
RetrievalEngine::accepting() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return accepting_;
}

std::size_t
RetrievalEngine::pendingQueries() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return queue_.size();
}

std::size_t
RetrievalEngine::pendingForTenant(TenantId tenant) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    const auto it = queuedPerTenant_.find(tenant);
    return it == queuedPerTenant_.end() ? 0 : it->second;
}

EngineStatsSnapshot
RetrievalEngine::stats() const
{
    std::lock_guard<std::mutex> lk(statsMutex_);
    EngineStatsSnapshot s;
    s.submitted = submitted_;
    s.served = served_;
    s.expired = expired_;
    s.rejected = rejected_;
    s.completed = served_ + expired_ + rejected_;
    s.batches = batches_;
    s.meanBatchSize = batchSizes_.mean();
    const auto digest = [](const Reservoir &r) {
        SampleSet ss;
        ss.addAll(r.samples);
        return summarizeLatency(ss);
    };
    s.queueLatency = digest(queueSamples_);
    s.searchLatency = digest(searchSamples_);
    s.totalLatency = digest(totalSamples_);
    s.expiredLatency = digest(expiredSamples_);
    s.degradedServed = degradedServed_;
    s.degradedBatches = degradedBatches_;
    s.servedWork = servedWork_;
    s.currentBatchCap = batchCap();
    s.autopilotCycles = autopilotCycles_;
    s.autopilotRepartitions = autopilotRepartitions_;
    s.autopilotTrace.assign(decisionTrace_.begin(),
                            decisionTrace_.end());
    s.tenants.reserve(tenantStats_.size());
    for (const auto &[tenant, tc] : tenantStats_) {
        TenantStatsSnapshot ts;
        ts.tenant = tenant;
        ts.submitted = tc.submitted;
        ts.served = tc.served;
        ts.expired = tc.expired;
        ts.rejected = tc.rejected;
        ts.degradedServed = tc.degradedServed;
        ts.servedWork = tc.servedWork;
        ts.share = liveShareLocked(tenant);
        ts.weight = tenantTable_.weight(tenant);
        ts.queueLatency = digest(tc.queueSamples);
        ts.totalLatency = digest(tc.totalSamples);
        s.tenants.push_back(std::move(ts));
    }
    return s;
}

void
RetrievalEngine::noteAutopilotCycle()
{
    std::lock_guard<std::mutex> slk(statsMutex_);
    ++autopilotCycles_;
}

void
RetrievalEngine::recordAutopilotDecision(AutopilotDecision decision)
{
    decision.atSeconds = secondsBetween(started_, Clock::now());
    std::lock_guard<std::mutex> slk(statsMutex_);
    if (decision.repartitioned)
        ++autopilotRepartitions_;
    decisionTrace_.push_back(decision);
    if (decisionTrace_.size() > kTraceCapacity)
        decisionTrace_.pop_front();
}

std::vector<RetrievalEngine::Pending>
RetrievalEngine::takeExpiredLocked(Clock::time_point now)
{
    std::vector<Pending> expired;
    bool any = false;
    for (const auto &p : queue_)
        if (p.hasDeadline && now >= p.deadline) {
            any = true;
            break;
        }
    if (!any)
        return expired;
    std::deque<Pending> keep;
    for (auto &p : queue_) {
        if (p.hasDeadline && now >= p.deadline) {
            if (config_.tenants.enable)
                --queuedPerTenant_[p.tenant];
            expired.push_back(std::move(p));
        } else {
            keep.push_back(std::move(p));
        }
    }
    queue_.swap(keep);
    return expired;
}

void
RetrievalEngine::resolveExpired(std::vector<Pending> expired)
{
    const auto now = Clock::now();
    {
        std::lock_guard<std::mutex> slk(statsMutex_);
        for (const auto &p : expired) {
            ++expired_;
            expiredSamples_.add(secondsBetween(p.admitted, now),
                                statsRng_);
            if (config_.tenants.enable)
                ++tenantStats_[p.tenant].expired;
        }
    }
    for (auto &p : expired) {
        SearchResponse r;
        r.disposition = Disposition::kExpiredInQueue;
        r.queueSeconds = secondsBetween(p.admitted, now);
        r.totalSeconds = r.queueSeconds;
        r.k = p.k;
        r.nprobe = p.nprobe;
        r.tenant = p.tenant;
        r.tag = p.tag;
        resolve(p, std::move(r));
    }
}

std::vector<std::size_t>
RetrievalEngine::formGroupLocked() const
{
    // EDF within a priority class: highest priority first; inside a
    // class, deadlined requests by earliest deadline (a deadline-free
    // request is an infinite deadline, so it follows every deadlined
    // one), admission order as the tie-break. The batch is every
    // queued request sharing the lead's k — per-request nprobe rides
    // through to the batch search — taken in the same order up to the
    // live cap.
    std::vector<std::size_t> order(queue_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  const Pending &pa = queue_[a];
                  const Pending &pb = queue_[b];
                  if (pa.priority != pb.priority)
                      return pa.priority > pb.priority;
                  if (pa.hasDeadline != pb.hasDeadline)
                      return pa.hasDeadline;
                  if (pa.hasDeadline && pa.deadline != pb.deadline)
                      return pa.deadline < pb.deadline;
                  return pa.seq < pb.seq;
              });
    std::vector<std::size_t> group;
    const std::size_t cap = batchCap();
    if (!tenantTable_.fairService()) {
        const std::size_t lead_k = queue_[order.front()].k;
        for (const std::size_t i : order) {
            if (queue_[i].k != lead_k)
                continue;
            group.push_back(i);
            if (group.size() >= cap)
                break;
        }
        return group;
    }

    // Start-time fair queueing over the EDF order: split the sorted
    // order into per-tenant candidate lists (each already in EDF
    // order) and grant batch slots to the tenant whose next candidate
    // has the smallest virtual start time,
    //
    //   start    = max(engine virtual time, tenant's last finish)
    //   finish   = start + effective nprobe / effective weight
    //   vtime    = start of the granted slot,
    //
    // ties to the smaller would-be finish, then the smaller tenant id.
    // Granting by start is what makes the discipline self-correcting:
    // a tenant that has received less service restarts at the engine
    // virtual time, below every backlogged competitor's pending
    // finish, and wins the next slot. (Granting by finish alone can
    // permanently lock out a lighter tenant whose cost/weight
    // increment is commensurate with a heavier tenant's — their
    // would-be finishes tie on every round and a deterministic
    // tie-break then decides every grant.) Charging effective nprobe
    // makes the long-run *scanned work* share proportional to the
    // weight while a tenant stays backlogged; a tenant that went idle
    // restarts at the engine virtual time, so idle periods bank no
    // credit. The first grant fixes the batch's k; candidates with a
    // different k are skipped (they stay queued for a later batch).
    // Everything here mutates local copies — the grants are committed
    // by chargeGroupLocked() only when the batch really dispatches.
    std::map<TenantId, std::vector<std::size_t>> byTenant;
    for (const std::size_t i : order)
        byTenant[queue_[i].tenant].push_back(i);
    double vtime = virtualTime_;
    std::map<TenantId, double> finish;
    for (const auto &[tenant, list] : byTenant) {
        const auto it = virtualFinish_.find(tenant);
        finish[tenant] = it == virtualFinish_.end() ? 0.0 : it->second;
    }
    std::map<TenantId, std::size_t> cursor;
    std::size_t lead_k = 0;
    while (group.size() < cap) {
        bool found = false;
        TenantId best;
        double bestStart = 0.0;
        double bestFinish = 0.0;
        std::size_t bestIdx = 0;
        for (const auto &[tenant, list] : byTenant) {
            std::size_t &cur = cursor[tenant];
            while (cur < list.size() && !group.empty() &&
                   queue_[list[cur]].k != lead_k)
                ++cur;
            if (cur >= list.size())
                continue;
            const std::size_t idx = list[cur];
            const double start = std::max(vtime, finish[tenant]);
            const double f =
                start + static_cast<double>(queue_[idx].nprobe) /
                            tenantTable_.weight(tenant);
            // Strict < keeps the smaller tenant id on full ties (the
            // map iterates ids ascending).
            if (!found || start < bestStart ||
                (start == bestStart && f < bestFinish)) {
                found = true;
                best = tenant;
                bestStart = start;
                bestFinish = f;
                bestIdx = idx;
            }
        }
        if (!found)
            break;
        if (group.empty())
            lead_k = queue_[bestIdx].k;
        vtime = std::max(vtime, finish[best]);
        finish[best] = bestFinish;
        group.push_back(bestIdx);
        ++cursor[best];
    }
    return group;
}

void
RetrievalEngine::chargeGroupLocked(const std::vector<std::size_t> &group)
{
    if (!tenantTable_.fairService())
        return;
    // Replay the grants in group order. The arithmetic is identical
    // to the simulation in formGroupLocked(), so the committed tags
    // match what selection assumed.
    for (const std::size_t i : group) {
        const Pending &p = queue_[i];
        double &finish = virtualFinish_[p.tenant];
        const double start = std::max(virtualTime_, finish);
        finish = start + static_cast<double>(p.nprobe) /
                             tenantTable_.weight(p.tenant);
        virtualTime_ = start;
    }
}

void
RetrievalEngine::dispatcherLoop()
{
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        cvDispatch_.wait(lk, [this] {
            return stop_ || flushing_ || !queue_.empty();
        });
        if (queue_.empty()) {
            if (stop_)
                return;
            // Drain requested with nothing queued: report idle, then
            // sleep until the flush flag clears or new work arrives
            // (avoids spinning on the outer predicate).
            cvIdle_.notify_all();
            cvDispatch_.wait(lk, [this] {
                return stop_ || !flushing_ || !queue_.empty();
            });
            continue;
        }

        // Deadline sweep first: requests whose deadline elapsed while
        // queued resolve kExpiredInQueue without ever entering a
        // batch (and without burning a search thread). The
        // batchInFlight_ guard keeps drain() from returning between
        // the sweep (which empties the queue) and the resolution of
        // the swept requests.
        {
            auto expired = takeExpiredLocked(Clock::now());
            if (!expired.empty()) {
                batchInFlight_ = true;
                lk.unlock();
                resolveExpired(std::move(expired));
                lk.lock();
                batchInFlight_ = false;
                cvIdle_.notify_all();
                continue;
            }
        }

        // Batch formation (paper IV-B2): dispatch once the compatible
        // group fills the cap, the oldest admitted request has waited
        // out the timeout, or a drain/stop forces the partial batch
        // out. Sleep no later than the earliest queued deadline so
        // expiry resolves promptly.
        const auto now = Clock::now();
        const auto batch_due =
            queue_.front().admitted +
            toDuration(config_.batching.timeoutSeconds);
        const auto sleep_until_wake = [&] {
            auto wake = batch_due;
            for (const auto &p : queue_)
                if (p.hasDeadline)
                    wake = std::min(wake, p.deadline);
            cvDispatch_.wait_until(lk, wake);
        };
        const bool forced = stop_ || flushing_ || now >= batch_due;
        // The group can only fill the cap if the whole queue could:
        // skip the O(n log n) group sort on wakeups that cannot
        // dispatch anyway (every submit notifies the dispatcher).
        const std::size_t cap = batchCap();
        if (!forced && queue_.size() < cap) {
            sleep_until_wake();
            continue;
        }
        auto group = formGroupLocked();
        if (!forced && group.size() < cap) {
            sleep_until_wake();
            continue;
        }

        // The batch is committed: charge its WFQ grants (a formed
        // group that goes back to sleep above charges nothing), then
        // extract it in dispatch order and compact the queue.
        chargeGroupLocked(group);
        std::vector<Pending> batch;
        batch.reserve(group.size());
        std::vector<char> taken(queue_.size(), 0);
        for (const std::size_t i : group) {
            if (config_.tenants.enable)
                --queuedPerTenant_[queue_[i].tenant];
            batch.push_back(std::move(queue_[i]));
            taken[i] = 1;
        }
        std::deque<Pending> rest;
        for (std::size_t i = 0; i < queue_.size(); ++i)
            if (!taken[i])
                rest.push_back(std::move(queue_[i]));
        queue_.swap(rest);

        batchInFlight_ = true;
        const std::size_t backlog = queue_.size();
        lk.unlock();
        executeBatch(std::move(batch), backlog);
        lk.lock();
        batchInFlight_ = false;
        cvIdle_.notify_all();
    }
}

void
RetrievalEngine::executeBatch(std::vector<Pending> batch,
                              std::size_t backlog)
{
    const std::size_t nq = batch.size();
    const std::size_t d = tiered_.dim();
    const std::size_t k = batch.front().k;

    // Graceful degradation (the alternative to letting the backlog
    // expire): when the standing queue exceeds `queuePressure` batch
    // caps, serve this batch at nprobe scaled by queuePressure /
    // pressure — deeper overload, shallower search — never below the
    // configured floor, and never deeper than requested.
    double scale = 1.0;
    if (config_.degrade.enable) {
        const double pressure =
            static_cast<double>(backlog + nq) /
            static_cast<double>(batchCap());
        if (pressure >= config_.degrade.queuePressure)
            scale = config_.degrade.queuePressure / pressure;
    }

    std::vector<float> queries(nq * d);
    std::vector<std::size_t> nprobes(nq);
    std::size_t degraded_count = 0;
    for (std::size_t i = 0; i < nq; ++i) {
        std::copy(batch[i].query.begin(), batch[i].query.end(),
                  queries.begin() + i * d);
        std::size_t np = batch[i].nprobe;
        // Degradation is tenant-scoped: a request whose TenantClass
        // opted out (degradable = false) keeps its requested depth
        // even under pressure, so best-effort tenants absorb the
        // recall loss before premium ones.
        const bool eligible =
            !config_.tenants.enable ||
            tenantTable_.resolve(batch[i].tenant).degradable;
        if (scale < 1.0 && eligible) {
            const auto scaled =
                static_cast<std::size_t>(std::llround(
                    static_cast<double>(np) * scale));
            np = std::max(
                std::min(np, config_.degrade.nprobeFloor), scaled);
        }
        if (np < batch[i].nprobe)
            ++degraded_count;
        nprobes[i] = np;
    }

    const auto t0 = Clock::now();
    TieredBatchStats tstats;
    auto results = tiered_.searchBatchParallel(
        queries, nq, k, nprobes, pool_, autopilot_ ? &tstats : nullptr);
    const auto t1 = Clock::now();
    const double search_s = secondsBetween(t0, t1);

    if (autopilot_)
        autopilot_->observeBatch(
            BatchObservation{nq, tstats.routeSeconds,
                             tstats.scanSeconds, tstats.meanHitRate},
            queries, nq);

    {
        std::lock_guard<std::mutex> slk(statsMutex_);
        ++batches_;
        batchSizes_.add(static_cast<double>(nq));
        degradedServed_ += degraded_count;
        if (degraded_count > 0)
            ++degradedBatches_;
        for (std::size_t i = 0; i < nq; ++i) {
            queueSamples_.add(secondsBetween(batch[i].admitted, t0),
                              statsRng_);
            searchSamples_.add(search_s, statsRng_);
            totalSamples_.add(secondsBetween(batch[i].admitted, t1),
                              statsRng_);
            ++served_;
            servedWork_ += nprobes[i];
            if (config_.tenants.enable) {
                TenantCounters &tc = tenantStats_[batch[i].tenant];
                ++tc.served;
                tc.servedWork += nprobes[i];
                if (nprobes[i] < batch[i].nprobe)
                    ++tc.degradedServed;
                tc.queueSamples.add(
                    secondsBetween(batch[i].admitted, t0), statsRng_);
                tc.totalSamples.add(
                    secondsBetween(batch[i].admitted, t1), statsRng_);
            }
        }
    }

    for (std::size_t i = 0; i < nq; ++i) {
        SearchResponse r;
        r.disposition = Disposition::kServed;
        r.degraded = nprobes[i] < batch[i].nprobe;
        r.hits = std::move(results[i]);
        r.queueSeconds = secondsBetween(batch[i].admitted, t0);
        r.searchSeconds = search_s;
        r.totalSeconds = secondsBetween(batch[i].admitted, t1);
        r.batchSize = nq;
        r.k = k;
        r.nprobe = nprobes[i];
        r.tenant = batch[i].tenant;
        r.tag = batch[i].tag;
        resolve(batch[i], std::move(r));
    }
}

} // namespace vlr::core
