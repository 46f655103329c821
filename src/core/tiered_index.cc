#include "core/tiered_index.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/timer.h"
#include "vecsearch/topk.h"

namespace vlr::core
{

namespace
{

/** Clamp the shard counts and fall back to the default backend. */
TieredOptions
normalizeOptions(TieredOptions opts)
{
    opts.numShards = std::max<std::size_t>(opts.numShards, 1);
    if (opts.maxShards == 0)
        opts.maxShards = opts.numShards;
    opts.maxShards = std::max(opts.maxShards, opts.numShards);
    if (!opts.backendFactory)
        opts.backendFactory = fastScanShardFactory();
    return opts;
}

/**
 * Deal an explicit hot set across shards with the shared
 * IndexSplitter::dealClusters policy, balancing by the source's real
 * list bytes instead of profile bytes.
 */
ShardAssignment
makeHotAssignment(const vs::IvfPqFastScanIndex &source,
                  std::vector<cluster_id_t> hot_clusters,
                  std::size_t num_shards)
{
    const std::size_t nlist = source.nlist();
    const double rho = nlist == 0
                           ? 0.0
                           : static_cast<double>(hot_clusters.size()) /
                                 static_cast<double>(nlist);
    return IndexSplitter::dealClusters(
        std::move(hot_clusters),
        [&source](cluster_id_t c) {
            return static_cast<double>(source.listBytes(c));
        },
        nlist, rho, static_cast<int>(num_shards));
}

/**
 * Place a profile's top-rho clusters. The profile must describe the
 * source's clusters: routing indexes the placement by the source's ids.
 */
ShardAssignment
makeProfileAssignment(const vs::IvfPqFastScanIndex &source,
                      const AccessProfile &profile, double rho,
                      std::size_t num_shards)
{
    if (profile.nlist() != source.nlist())
        throw std::invalid_argument(
            "TieredIndex: the profile covers " +
            std::to_string(profile.nlist()) +
            " clusters but the source index has " +
            std::to_string(source.nlist()));
    return IndexSplitter::split(profile, rho, static_cast<int>(num_shards));
}

} // namespace

TieredIndex::Tiers::Tiers(const vs::IvfPqFastScanIndex &source,
                          ShardAssignment a, const TieredOptions &opts)
    : assignment(std::move(a))
{
    assert(assignment.clusterShard.size() == source.nlist());
    shards.reserve(assignment.numShards());
    for (std::size_t s = 0; s < assignment.numShards(); ++s) {
        shards.push_back(
            opts.backendFactory(source, assignment.shardClusters[s], s));
        numHot += assignment.shardClusters[s].size();
        hotBytes += shards.back()->bytes();
    }
    rho = source.nlist() == 0
              ? 0.0
              : static_cast<double>(numHot) /
                    static_cast<double>(source.nlist());
}

TieredIndex::StatShard::StatShard(std::size_t nlist,
                                  std::size_t max_shards)
    : accessCounts(std::make_unique<std::atomic<std::uint64_t>[]>(nlist)),
      shardProbes(
          std::make_unique<std::atomic<std::uint64_t>[]>(max_shards)),
      shardScanSeconds(
          std::make_unique<std::atomic<double>[]>(max_shards)),
      shardScanCounts(
          std::make_unique<std::atomic<std::uint64_t>[]>(max_shards))
{
    for (std::size_t c = 0; c < nlist; ++c)
        accessCounts[c].store(0, std::memory_order_relaxed);
    for (std::size_t s = 0; s < max_shards; ++s) {
        shardProbes[s].store(0, std::memory_order_relaxed);
        shardScanSeconds[s].store(0.0, std::memory_order_relaxed);
        shardScanCounts[s].store(0, std::memory_order_relaxed);
    }
}

TieredIndex::TieredIndex(const vs::IvfPqFastScanIndex &source,
                         std::vector<cluster_id_t> hot_clusters,
                         TieredOptions opts)
    : source_(source), opts_(normalizeOptions(std::move(opts))),
      tiers_(new Tiers(source,
                       makeHotAssignment(source, std::move(hot_clusters),
                                         opts_.numShards),
                       opts_)),
      statShards_([nlist = source.nlist(), max = opts_.maxShards] {
          return std::make_unique<StatShard>(nlist, max);
      })
{
}

TieredIndex::TieredIndex(const vs::IvfPqFastScanIndex &source,
                         const AccessProfile &profile, double rho,
                         TieredOptions opts)
    : source_(source), opts_(normalizeOptions(std::move(opts))),
      tiers_(new Tiers(source,
                       makeProfileAssignment(source, profile, rho,
                                             opts_.numShards),
                       opts_)),
      statShards_([nlist = source.nlist(), max = opts_.maxShards] {
          return std::make_unique<StatShard>(nlist, max);
      })
{
}

TieredIndex::~TieredIndex()
{
    // No reader may be active (class contract), so the current
    // generation can be freed directly; epochs_'s destructor drains
    // whatever repartitions left in limbo.
    delete tiers_.load(std::memory_order_relaxed);
}

TieredIndex::ProbeBuckets
TieredIndex::routeProbes(const Tiers &tiers,
                         std::span<const cluster_id_t> clusters,
                         TieredQueryStats *qs) const
{
    StatShard &stats = localStats();
    ProbeBuckets b;
    b.shardProbes.resize(tiers.assignment.numShards());

    // Pruned routing: each probe goes only to the tier holding its
    // list. The same pass sums the work-weighted hit rate, the hot
    // share of the vectors the query scans.
    double total_work = 0.0;
    double hot_work = 0.0;
    for (const cluster_id_t c : clusters) {
        const auto w = static_cast<double>(source_.listSize(c));
        total_work += w;
        stats.accessCounts[static_cast<std::size_t>(c)].fetch_add(
            1, std::memory_order_relaxed);
        const shard_id_t s =
            tiers.assignment.clusterShard[static_cast<std::size_t>(c)];
        std::vector<cluster_id_t> &bucket =
            s == kCpuShard ? b.coldProbes
                           : b.shardProbes[static_cast<std::size_t>(s)];
        // The probe list runs nearest first, so a bucket's first probe
        // is its nearest and the order below is by nearest probe.
        if (bucket.empty())
            b.order.push_back(s);
        bucket.push_back(c);
        if (s != kCpuShard) {
            hot_work += w;
            stats.shardProbes[static_cast<std::size_t>(s)].fetch_add(
                1, std::memory_order_relaxed);
            ++b.hotCount;
        }
    }
    const double hit_rate = total_work > 0.0 ? hot_work / total_work : 0.0;

    const bool hot_only = b.coldProbes.empty() && b.hotCount > 0;
    stats.queries.fetch_add(1, std::memory_order_relaxed);
    if (hot_only)
        stats.hotOnly.fetch_add(1, std::memory_order_relaxed);
    else if (b.hotCount == 0)
        stats.coldOnly.fetch_add(1, std::memory_order_relaxed);
    else
        stats.split.fetch_add(1, std::memory_order_relaxed);
    stats.hotProbes.fetch_add(b.hotCount, std::memory_order_relaxed);
    stats.totalProbes.fetch_add(clusters.size(),
                                std::memory_order_relaxed);
    StatShard::ownerAdd(stats.hitRateSum, hit_rate);

    if (qs) {
        qs->hotProbes = b.hotCount;
        qs->coldProbes = b.coldProbes.size();
        qs->hitRate = hit_rate;
        qs->hotOnly = hot_only;
    }
    return b;
}

std::vector<vs::SearchHit>
TieredIndex::searchOne(const Tiers &tiers, const float *query,
                       std::size_t k, std::size_t nprobe,
                       vs::SearchScratch &scratch, TieredQueryStats *qs,
                       QueryTimes *times) const
{
    WallTimer timer;
    const auto pl = source_.quantizer().probe(query, nprobe);
    const ProbeBuckets buckets = routeProbes(tiers, pl.clusters, qs);
    const double route_s = timer.elapsed();

    // One LUT and one TopK serve every bucket. Buckets are visited by
    // nearest probe, so near lists fill the heap first and tighten the
    // k-th bound the far ones are filtered against. The hits do not
    // depend on the order: TopK keeps the k least under (dist, id).
    const vs::QuantizedLut qlut =
        vs::buildQuantizedLut(source_.pq(), query, scratch);
    vs::TopK topk(k);
    StatShard &stats = localStats();
    for (const shard_id_t s : buckets.order) {
        WallTimer scan_timer;
        if (s != kCpuShard) {
            const auto si = static_cast<std::size_t>(s);
            tiers.shards[si]->scanClusters(query, qlut,
                                           buckets.shardProbes[si],
                                           scratch, topk);
            StatShard::ownerAdd(stats.shardScanSeconds[si],
                                scan_timer.elapsed());
            stats.shardScanCounts[si].fetch_add(1,
                                                std::memory_order_relaxed);
            continue;
        }
        // Cold probes go to the pluggable cold backend when one is
        // configured, otherwise scan the source index in place; both
        // sides of the choice are bit-identical by the parity contract.
        if (opts_.coldBackend != nullptr)
            opts_.coldBackend->scanClusters(query, qlut, buckets.coldProbes,
                                            scratch, topk);
        else
            source_.scanClusters(qlut, buckets.coldProbes, scratch, topk);
        StatShard::ownerAdd(stats.coldScanSeconds, scan_timer.elapsed());
        stats.coldScanCounts.fetch_add(1, std::memory_order_relaxed);
    }
    if (times) {
        times->route = route_s;
        times->scan = timer.elapsed() - route_s;
    }
    return topk.sortedHits();
}

std::vector<vs::SearchHit>
TieredIndex::search(const float *query, std::size_t k, std::size_t nprobe,
                    vs::SearchScratch *scratch, TieredQueryStats *qs) const
{
    // The whole read path runs inside one epoch guard: the snapshot
    // pin is the single acquire load below — no mutex, no refcount.
    EpochGuard guard(epochs_);
    vs::SearchScratch local;
    return searchOne(*currentTiers(), query, k, nprobe,
                     scratch ? *scratch : local, qs, nullptr);
}

std::vector<std::vector<vs::SearchHit>>
TieredIndex::searchBatchParallel(std::span<const float> queries,
                                 std::size_t nq, std::size_t k,
                                 std::size_t nprobe, ThreadPool &pool,
                                 TieredBatchStats *bs) const
{
    const std::vector<std::size_t> nprobes(nq, nprobe);
    return searchBatchParallel(queries, nq, k, nprobes, pool, bs);
}

std::vector<std::vector<vs::SearchHit>>
TieredIndex::searchBatchParallel(std::span<const float> queries,
                                 std::size_t nq, std::size_t k,
                                 std::span<const std::size_t> nprobes,
                                 ThreadPool &pool,
                                 TieredBatchStats *bs) const
{
    const std::size_t d = dim();
    assert(queries.size() >= nq * d);
    assert(nprobes.size() >= nq);
    // One snapshot serves the whole batch, so a concurrent repartition
    // cannot split a batch across placement generations. The calling
    // thread's guard brackets every pool task below (fork/join), so
    // the snapshot cannot be reclaimed while any worker still scans
    // it — workers need no guards of their own.
    EpochGuard guard(epochs_);
    const Tiers &tiers = *currentTiers();
    std::vector<std::vector<vs::SearchHit>> out(nq);
    std::vector<TieredQueryStats> qstats(bs ? nq : 0);
    std::vector<QueryTimes> times(bs ? nq : 0);

    // One task per query: probe, route and scan every bucket at the
    // query's own nprobe (batches may mix per-request probe depths).
    WallTimer wall;
    pool.parallelForDynamic(nq, 1, [&](std::size_t i) {
        static thread_local vs::SearchScratch scratch;
        out[i] = searchOne(tiers, queries.data() + i * d, k, nprobes[i],
                           scratch, bs ? &qstats[i] : nullptr,
                           bs ? &times[i] : nullptr);
    });
    const double wall_s = wall.elapsed();

    if (bs) {
        *bs = {};
        bs->queries = nq;
        double sum = 0.0, route_sum = 0.0, scan_sum = 0.0;
        for (std::size_t i = 0; i < nq; ++i) {
            const TieredQueryStats &s = qstats[i];
            if (s.hotOnly)
                ++bs->hotOnlyQueries;
            else if (s.hotProbes == 0)
                ++bs->coldOnlyQueries;
            else
                ++bs->splitQueries;
            sum += s.hitRate;
            bs->minHitRate = std::min(bs->minHitRate, s.hitRate);
            route_sum += times[i].route;
            scan_sum += times[i].scan;
        }
        bs->meanHitRate =
            nq == 0 ? 0.0 : sum / static_cast<double>(nq);
        if (nq == 0)
            bs->minHitRate = 0.0;
        // Route and scan overlap across tasks, so split the batch wall
        // in proportion to the tasks' summed stage times.
        const double busy = route_sum + scan_sum;
        bs->routeSeconds = busy > 0.0 ? wall_s * route_sum / busy : 0.0;
        bs->scanSeconds = wall_s - bs->routeSeconds;
    }
    return out;
}

void
TieredIndex::repartition(std::vector<cluster_id_t> hot_clusters,
                         std::size_t num_shards)
{
    // Build the replacement generation — every shard backend — off the
    // read path: in-flight and newly admitted searches keep using the
    // old snapshot meanwhile. num_shards == 0 keeps the current
    // snapshot's shard count; per-shard stat arrays are sized to
    // maxShards so a count change never reallocates them.
    std::size_t shards = num_shards;
    if (shards == 0) {
        EpochGuard guard(epochs_);
        shards = currentTiers()->assignment.numShards();
    }
    shards = std::clamp<std::size_t>(shards, 1, opts_.maxShards);
    auto next = std::make_unique<Tiers>(
        source_,
        makeHotAssignment(source_, std::move(hot_clusters), shards),
        opts_);
    // Publish with one swap; readers pinned to the displaced
    // generation keep it alive via their epoch guards, and the epoch
    // domain frees it once the last of them exits.
    const Tiers *old =
        tiers_.exchange(next.release(), std::memory_order_acq_rel);
    epochs_.retire(old);
    repartitions_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<double>
TieredIndex::drainAccessCounts()
{
    const std::size_t n = nlist();
    std::vector<double> out(n);
    statShards_.forEach([&out, n](StatShard &shard) {
        for (std::size_t c = 0; c < n; ++c) {
            const std::uint64_t v = shard.accessCounts[c].exchange(
                0, std::memory_order_relaxed);
            if (v != 0)
                out[c] += static_cast<double>(v);
        }
    });
    return out;
}

AccessProfile
TieredIndex::profileFromCounts(std::vector<double> counts) const
{
    const std::size_t n = nlist();
    assert(counts.size() == n);
    std::vector<double> work(n), bytes(n);
    for (std::size_t c = 0; c < n; ++c) {
        const auto id = static_cast<cluster_id_t>(c);
        work[c] = static_cast<double>(source_.listSize(id));
        bytes[c] = static_cast<double>(source_.listBytes(id));
    }
    return AccessProfile(std::move(counts), std::move(work),
                         std::move(bytes));
}

TieredStatsSnapshot
TieredIndex::stats() const
{
    TieredStatsSnapshot s;
    // Two-phase merge: every per-thread shard folds into one snapshot.
    double hit_rate_sum = 0.0;
    s.shardProbeCounts.resize(opts_.maxShards);
    s.shardScanSeconds.resize(opts_.maxShards);
    s.shardScanCounts.resize(opts_.maxShards);
    statShards_.forEach([&](const StatShard &shard) {
        s.queries += shard.queries.load(std::memory_order_relaxed);
        s.hotOnlyQueries +=
            shard.hotOnly.load(std::memory_order_relaxed);
        s.coldOnlyQueries +=
            shard.coldOnly.load(std::memory_order_relaxed);
        s.splitQueries += shard.split.load(std::memory_order_relaxed);
        s.hotProbes += shard.hotProbes.load(std::memory_order_relaxed);
        s.totalProbes +=
            shard.totalProbes.load(std::memory_order_relaxed);
        hit_rate_sum += shard.hitRateSum.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < opts_.maxShards; ++i) {
            s.shardProbeCounts[i] += static_cast<std::size_t>(
                shard.shardProbes[i].load(std::memory_order_relaxed));
            s.shardScanSeconds[i] +=
                shard.shardScanSeconds[i].load(
                    std::memory_order_relaxed);
            s.shardScanCounts[i] += static_cast<std::size_t>(
                shard.shardScanCounts[i].load(
                    std::memory_order_relaxed));
        }
        s.coldScanSeconds +=
            shard.coldScanSeconds.load(std::memory_order_relaxed);
        s.coldScanCounts += static_cast<std::size_t>(
            shard.coldScanCounts.load(std::memory_order_relaxed));
    });
    s.meanHitRate = s.queries == 0
                        ? 0.0
                        : hit_rate_sum / static_cast<double>(s.queries);
    s.hotProbeFraction =
        s.totalProbes == 0
            ? 0.0
            : static_cast<double>(s.hotProbes) /
                  static_cast<double>(s.totalProbes);
    s.repartitions = repartitions_.load(std::memory_order_relaxed);
    s.pendingReclaims = epochs_.limboSize();

    EpochGuard guard(epochs_);
    const Tiers *tiers = currentTiers();
    s.rho = tiers->rho;
    s.numHot = tiers->numHot;
    s.hotBytes = tiers->hotBytes;
    s.numShards = tiers->shards.size();
    s.backend = tiers->shards.empty() ? std::string()
                                      : tiers->shards.front()->name();
    s.shardBytes.reserve(tiers->shards.size());
    for (const auto &shard : tiers->shards)
        s.shardBytes.push_back(shard->bytes());
    if (opts_.coldBackend != nullptr) {
        s.coldBackend = opts_.coldBackend->name();
        s.coldBytes = opts_.coldBackend->bytes();
        s.coldResidentBytes = opts_.coldBackend->residentBytes();
        s.coldResidentClusters = opts_.coldBackend->residentClusters();
    }
    return s;
}

std::vector<bool>
TieredIndex::hotBitmap() const
{
    EpochGuard guard(epochs_);
    const Tiers *tiers = currentTiers();
    std::vector<bool> bm(nlist(), false);
    for (const auto &shard : tiers->assignment.shardClusters)
        for (const cluster_id_t c : shard)
            bm[static_cast<std::size_t>(c)] = true;
    return bm;
}

double
TieredIndex::rho() const
{
    EpochGuard guard(epochs_);
    return currentTiers()->rho;
}

std::size_t
TieredIndex::numHotClusters() const
{
    EpochGuard guard(epochs_);
    return currentTiers()->numHot;
}

std::size_t
TieredIndex::numShards() const
{
    EpochGuard guard(epochs_);
    return currentTiers()->assignment.numShards();
}

} // namespace vlr::core
