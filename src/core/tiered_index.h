/**
 * @file
 * Tiered hot/cold index runtime — the live-engine counterpart of the
 * analytic partitioning pipeline (paper Sections IV-A/IV-B).
 *
 * A TieredIndex splits a trained IvfPqFastScanIndex by cluster: the hot
 * tier is N shards, each behind a pluggable HotShardBackend (the
 * default is a fast-scan view of the shard's lists in the source index,
 * standing in for a GPU-resident shard), while cold probes scan the
 * source index in place — the CPU keeps the full index, exactly as the
 * paper's host-side master copy does. Alternatively
 * TieredOptions::coldBackend swaps the in-place cold scan for a
 * pluggable backend (storage::MmapColdTier serves cold probes straight
 * from a memory-mapped artifact), keeping the same bit-identical parity
 * contract. Hot clusters are placed across shards by the same
 * size-balanced round-robin dealing IndexSplitter::split uses, and each
 * query's probe list is bucketed by the multi-shard ShardAssignment
 * with pruned routing, so hot-covered queries skip the cold tier
 * entirely. The bucketing pass also yields the query's work-weighted
 * hit rate (hot list sizes over probed list sizes), the definition the
 * simulator's pruned routing applies to its plans. An empty hot set is
 * the rho = 0 end of the axis: every probe is cold, and the engine
 * serves a bare index this way.
 *
 * Each query is served by one function, serially or as one pool task
 * of a batch: it probes the coarse quantizer, routes the probes into
 * per-shard and cold buckets, builds its LUT once from the source PQ,
 * and scans every non-empty bucket on its backend into one TopK,
 * nearest bucket first.
 *
 * The read path is lock-free and contention-free: searches pin the
 * current tier snapshot with a single acquire load inside an
 * EpochGuard (epoch.h) instead of a mutex-guarded shared_ptr copy, and
 * every per-probe statistic (per-cluster access counts, per-shard
 * probe/scan counters, scan wall-time accumulators, per-query routing
 * tallies) lands in a per-thread stat shard — an uncontended cache
 * line owned by the recording thread. drainAccessCounts()/stats()
 * merge the shards on demand with exact totals. SloAutopilot is the
 * engine's one caller of drainAccessCounts() and repartition(), its
 * control cycle's profiling input and actuator.
 * repartition() rebuilds every shard off the read path, publishes the
 * new generation with one atomic pointer swap, and retires the old one
 * to the epoch domain, which frees it only after every reader has
 * moved past it.
 */

#ifndef VLR_CORE_TIERED_INDEX_H
#define VLR_CORE_TIERED_INDEX_H

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "core/access_profile.h"
#include "core/epoch.h"
#include "core/shard_backend.h"
#include "core/splitter.h"
#include "vecsearch/ivf_pq_fastscan.h"

namespace vlr::core
{

/** Hot-tier shape: shard count and per-shard backend construction. */
struct TieredOptions
{
    /** Hot shards the hot set is dealt across (>= 1). */
    std::size_t numShards = 1;
    /**
     * Builds each shard's backend; null means the default fast-scan
     * view of the source (fastScanShardFactory()).
     */
    ShardBackendFactory backendFactory;
    /**
     * Most shards any repartition may rebuild to (per-shard stat
     * arrays are sized to this at construction). 0 means numShards,
     * i.e. the shard count stays fixed — the pre-autopilot behaviour.
     */
    std::size_t maxShards = 0;
    /**
     * Optional cold-tier backend. Null (the default) keeps the classic
     * behaviour: cold probes scan the source index in place. Non-null
     * routes every cold probe to this backend instead — e.g. a
     * storage::MmapColdTier serving list segments from a mapped
     * artifact, which frees the cold tier from the process heap.
     * Caller-owned; must outlive the TieredIndex. Parity contract:
     * the backend must serve exactly the source index's cluster
     * contents with bit-identical distances (HotShardBackend
     * semantics), or tiered results diverge from the serial scan.
     */
    const HotShardBackend *coldBackend = nullptr;
};

/** Routing outcome of one live query through the tiers. */
struct TieredQueryStats
{
    /** Probes resident on the hot tier (any shard). */
    std::size_t hotProbes = 0;
    /** Probes served by the cold (source) tier. */
    std::size_t coldProbes = 0;
    /** Work-weighted hot hit rate: the hot probes' list sizes over all
     *  probed list sizes (0 when the probed lists are empty). */
    double hitRate = 0.0;
    /** True when the cold tier was skipped entirely. */
    bool hotOnly = false;
};

/** Aggregate routing outcome of one batch. */
struct TieredBatchStats
{
    std::size_t queries = 0;
    std::size_t hotOnlyQueries = 0;
    std::size_t coldOnlyQueries = 0;
    std::size_t splitQueries = 0;
    double meanHitRate = 0.0;
    double minHitRate = 1.0;
    /**
     * Coarse-quantize + route share of the batch wall time — the live
     * T_CQ(b) sample the autopilot fits (Eq. 1). Each query's task
     * routes and then scans, so the stages overlap across tasks; the
     * batch wall is split in proportion to the tasks' summed route and
     * scan times, and routeSeconds + scanSeconds is the batch wall.
     */
    double routeSeconds = 0.0;
    /** LUT build + bucket scan share of the batch wall time, split as
     *  above — normalized by the batch miss fraction it samples
     *  T_LUT(b). */
    double scanSeconds = 0.0;
};

/** Cumulative tier statistics since construction. */
struct TieredStatsSnapshot
{
    std::size_t queries = 0;
    std::size_t hotOnlyQueries = 0;
    std::size_t coldOnlyQueries = 0;
    std::size_t splitQueries = 0;
    /** Mean work-weighted hit rate over all served queries. */
    double meanHitRate = 0.0;
    /** Fraction of all probes that landed on the hot tier. */
    double hotProbeFraction = 0.0;
    /** Total probes routed since construction (hot + cold). */
    std::size_t totalProbes = 0;
    /** Probes routed to any hot shard since construction. */
    std::size_t hotProbes = 0;
    /** Completed repartitions (snapshot swaps). */
    std::size_t repartitions = 0;
    /** Current coverage: hot clusters / nlist. */
    double rho = 0.0;
    std::size_t numHot = 0;
    /** Bytes of the lists the current hot tier serves, all shards. */
    std::size_t hotBytes = 0;
    /** Hot shards in the current snapshot. */
    std::size_t numShards = 0;
    /** Backend name of the current snapshot's shards. */
    std::string backend;
    /** Bytes of the lists each shard serves (current snapshot). */
    std::vector<std::size_t> shardBytes;
    /** Cumulative probes routed to each shard since construction. */
    std::vector<std::size_t> shardProbeCounts;
    /**
     * Cumulative wall seconds of each shard's bucket scans since
     * construction (one entry per shard), timed around the backend's
     * scanClusters. With shardScanCounts this yields per-shard mean
     * scan latency — the signal a per-shard executor would balance on.
     */
    std::vector<double> shardScanSeconds;
    /** Cumulative bucket scans per shard since construction: one per
     *  query holding a probe on the shard. */
    std::vector<std::size_t> shardScanCounts;
    /** Cumulative wall seconds of cold bucket scans. */
    double coldScanSeconds = 0.0;
    /** Cumulative cold bucket scans since construction. */
    std::size_t coldScanCounts = 0;
    /** Cold backend name; empty when cold probes scan the source. */
    std::string coldBackend;
    /** Bytes served by the cold backend (0 without one). */
    std::size_t coldBytes = 0;
    /** RAM-resident bytes of the cold backend right now (advisory;
     *  mincore()-based for memory-mapped backends). */
    std::size_t coldResidentBytes = 0;
    /** Cold-backend clusters fully RAM-resident right now. */
    std::size_t coldResidentClusters = 0;
    /** Retired placement generations not yet reclaimed (epoch limbo;
     *  0 once every reader has moved past old snapshots). */
    std::size_t pendingReclaims = 0;
};

/**
 * Partition-aware retrieval path over a trained IvfPqFastScanIndex.
 *
 * Search results are exactly the single-tier results for any hot set
 * and any shard count: all tiers share the source's coarse quantizer,
 * every bucket is scored with one LUT built from the source's PQ,
 * backend distances are bit-identical by contract (HotShardBackend),
 * and top-k selection is a total order on (dist, id), so scanning the
 * buckets into one TopK reproduces the serial scan.
 *
 * Thread-safety: search methods are const and may run from any number
 * of threads; repartition() may run concurrently with searches. A
 * search pins the placement generation it started with via an epoch
 * guard (no mutex, no shared_ptr refcount bounce) and a concurrent
 * repartition retires the displaced generation to the epoch domain,
 * which frees it only after every pinned reader has exited. The
 * source index must outlive the TieredIndex and must not be mutated
 * while tiered searches run.
 */
class TieredIndex
{
  public:
    /**
     * @param source trained and populated single-tier index.
     * @param hot_clusters clusters placed on the hot tier (distinct
     *        ids in [0, nlist), e.g. AccessProfile::hotClusters);
     *        dealt across opts.numShards by descending size.
     * @param opts hot-tier shape (shard count + backend factory).
     * @throws std::invalid_argument on an id outside [0, nlist) or a
     *         repeated id.
     */
    TieredIndex(const vs::IvfPqFastScanIndex &source,
                std::vector<cluster_id_t> hot_clusters,
                TieredOptions opts = {});

    /**
     * Hot set = profile's top-rho clusters, placed across
     * opts.numShards with IndexSplitter::split's size-balanced
     * round-robin dealing.
     * @throws std::invalid_argument when the profile's nlist is not
     *         the source's.
     */
    TieredIndex(const vs::IvfPqFastScanIndex &source,
                const AccessProfile &profile, double rho,
                TieredOptions opts = {});

    /** No search or repartition may be in flight at destruction. */
    ~TieredIndex();

    TieredIndex(const TieredIndex &) = delete;
    TieredIndex &operator=(const TieredIndex &) = delete;

    /**
     * Serial tiered search: probe the shared coarse quantizer, bucket
     * the probes by shard, then scan each hot shard holding a probe and
     * (only if needed) the cold tier into one TopK. Records
     * per-cluster access counts.
     */
    std::vector<vs::SearchHit> search(const float *query, std::size_t k,
                                      std::size_t nprobe,
                                      vs::SearchScratch *scratch = nullptr,
                                      TieredQueryStats *qs = nullptr) const;

    /**
     * Batched tiered search across a thread pool; one snapshot serves
     * the whole batch. Each query is one pool task running search()'s
     * per-query function, so a batch pays one fork/join, and a slow
     * shard backend stalls only the queries holding probes on it.
     * Results are bit-identical to per-query search().
     */
    std::vector<std::vector<vs::SearchHit>> searchBatchParallel(
        std::span<const float> queries, std::size_t nq, std::size_t k,
        std::size_t nprobe, ThreadPool &pool,
        TieredBatchStats *bs = nullptr) const;

    /**
     * Per-query-nprobe batched search: query i probes nprobes[i]
     * lists (nq entries). This is the deadline-aware dispatcher's
     * entry point — one batch may mix requests with different nprobe
     * — and each query's results are bit-identical to a serial
     * search(query, k, nprobes[i]).
     */
    std::vector<std::vector<vs::SearchHit>> searchBatchParallel(
        std::span<const float> queries, std::size_t nq, std::size_t k,
        std::span<const std::size_t> nprobes, ThreadPool &pool,
        TieredBatchStats *bs = nullptr) const;

    /**
     * Rebuild the hot tier around a new hot set and atomically swap it
     * in. The rebuild of every shard backend runs before the swap,
     * outside any lock; searches started on the old snapshot
     * finish on it (the displaced generation is epoch-retired and
     * freed once the last pinned reader exits). The backend factory is
     * preserved; @p num_shards picks the rebuilt shard count (clamped
     * to [1, maxShards()]), with 0 keeping the current count — the
     * autopilot's shard-count actuation rides this parameter.
     * @throws std::invalid_argument on an id outside [0, nlist) or a
     *         repeated id; the current placement keeps serving.
     */
    void repartition(std::vector<cluster_id_t> hot_clusters,
                     std::size_t num_shards = 0);

    /**
     * Return and reset the live per-cluster access counts (probes per
     * cluster since the last drain) — the profiling input of an online
     * repartition cycle.
     *
     * Consistency contract: each recording thread bumps its own stat
     * shard once per routed probe, before the probe's scan runs; a
     * drain exchanges every shard's counters to zero. A drain that
     * overlaps in-flight batches may therefore split one batch's
     * probes across two drains, and is not an instantaneous snapshot
     * across clusters — but no probe is ever lost or double-counted:
     * over any quiescent point (all searches completed), the sum of
     * every drained count since construction equals stats()'
     * totalProbes. Concurrent drains are safe (each probe appears in
     * exactly one drain).
     */
    std::vector<double> drainAccessCounts();

    /**
     * Build an AccessProfile from live access counts and the source
     * index's real per-cluster sizes/bytes, ready for hotClusters()
     * selection or the latency-bounded partitioner.
     */
    AccessProfile profileFromCounts(std::vector<double> counts) const;

    /**
     * Cumulative statistics, merged across the per-thread stat shards.
     * Counters share drainAccessCounts()' consistency contract: each
     * is bumped once per query/probe with relaxed ordering in the
     * recording thread's shard, so a snapshot taken mid-batch may
     * observe a partially recorded batch (e.g. queries ahead of
     * hotProbes), but every counter is exact at any quiescent point.
     */
    TieredStatsSnapshot stats() const;

    /** Current hot-tier membership bitmap (copy; nlist entries). */
    std::vector<bool> hotBitmap() const;

    double rho() const;
    std::size_t numHotClusters() const;
    /** Hot shards in the current snapshot (repartition may change it
     *  up to maxShards()). */
    std::size_t numShards() const;
    /** Upper bound on the shard count any repartition may pick. */
    std::size_t maxShards() const { return opts_.maxShards; }
    std::size_t dim() const { return source_.dim(); }
    std::size_t nlist() const { return source_.nlist(); }
    const vs::IvfPqFastScanIndex &source() const { return source_; }

  private:
    /** One immutable hot/cold placement generation. */
    struct Tiers
    {
        ShardAssignment assignment;
        /** Per-shard backends (assignment.numShards() entries). */
        std::vector<std::unique_ptr<HotShardBackend>> shards;
        std::size_t numHot = 0;
        double rho = 0.0;
        /** Bytes of the lists served across shards. */
        std::size_t hotBytes = 0;

        Tiers(const vs::IvfPqFastScanIndex &source, ShardAssignment a,
              const TieredOptions &opts);
    };

    /**
     * One thread's statistics shard: every counter the read path
     * touches, on cache lines owned by the recording thread. Members
     * are atomics only so drains (exchange) and stats merges (load)
     * from other threads are race-free; the recording thread is the
     * sole writer outside drains, so its relaxed RMWs never contend.
     * The wall-second accumulators are owner-only plain read-modify-
     * write stores — no CAS loop anywhere on the hot path.
     */
    struct alignas(64) StatShard
    {
        StatShard(std::size_t nlist, std::size_t max_shards);

        /** Per-cluster probe counts (nlist entries; drained). */
        std::unique_ptr<std::atomic<std::uint64_t>[]> accessCounts;
        /** Cumulative probes routed to each shard (maxShards). */
        std::unique_ptr<std::atomic<std::uint64_t>[]> shardProbes;
        /** Cumulative wall seconds inside each shard's scans. */
        std::unique_ptr<std::atomic<double>[]> shardScanSeconds;
        /** Cumulative bucket scans per shard. */
        std::unique_ptr<std::atomic<std::uint64_t>[]> shardScanCounts;
        std::atomic<double> coldScanSeconds{0.0};
        std::atomic<std::uint64_t> coldScanCounts{0};
        std::atomic<std::uint64_t> queries{0};
        std::atomic<std::uint64_t> hotOnly{0};
        std::atomic<std::uint64_t> coldOnly{0};
        std::atomic<std::uint64_t> split{0};
        std::atomic<std::uint64_t> hotProbes{0};
        std::atomic<std::uint64_t> totalProbes{0};
        /** Owner-only accumulate; merged into meanHitRate. */
        std::atomic<double> hitRateSum{0.0};

        /** Owner-thread add to a double accumulator (single writer,
         *  so load+store replaces the old CAS loop). */
        static void
        ownerAdd(std::atomic<double> &a, double x)
        {
            a.store(a.load(std::memory_order_relaxed) + x,
                    std::memory_order_relaxed);
        }
    };

    /** One query's probe list bucketed by destination. */
    struct ProbeBuckets
    {
        /** Per-shard probe lists (numShards entries, many empty). */
        std::vector<std::vector<cluster_id_t>> shardProbes;
        /** Cold (source-tier) probe list. */
        std::vector<cluster_id_t> coldProbes;
        /** Non-empty buckets by nearest probe (kCpuShard = cold). */
        std::vector<shard_id_t> order;
        std::size_t hotCount = 0;
    };

    /** One query's route and scan wall seconds. */
    struct QueryTimes
    {
        double route = 0.0;
        double scan = 0.0;
    };

    /** Current generation; caller must hold an EpochGuard. */
    const Tiers *
    currentTiers() const
    {
        return tiers_.load(std::memory_order_acquire);
    }

    /** This thread's stat shard (registered on first use). */
    StatShard &
    localStats() const
    {
        return statShards_.local();
    }

    /**
     * Bucket one probe list by destination shard, in the same pass sum
     * the work-weighted hit rate, and record access counters and
     * per-query routing stats in the calling thread's stat shard.
     */
    ProbeBuckets routeProbes(const Tiers &tiers,
                             std::span<const cluster_id_t> clusters,
                             TieredQueryStats *qs) const;

    /**
     * The one per-query path behind search() and searchBatchParallel():
     * probe, route, build the LUT once, scan every non-empty bucket
     * into one TopK (timing each under its shard's or the cold stats)
     * and return its sorted hits.
     */
    std::vector<vs::SearchHit> searchOne(const Tiers &tiers,
                                         const float *query,
                                         std::size_t k, std::size_t nprobe,
                                         vs::SearchScratch &scratch,
                                         TieredQueryStats *qs,
                                         QueryTimes *times) const;

    const vs::IvfPqFastScanIndex &source_;
    TieredOptions opts_;

    /**
     * Current placement generation. Readers pin it with a single
     * acquire load inside an EpochGuard; repartition() publishes a
     * replacement with exchange(acq_rel) and retires the old pointer
     * to epochs_.
     */
    std::atomic<const Tiers *> tiers_;
    /** Reclamation domain for displaced placement generations. */
    mutable EpochManager epochs_;

    /** Per-thread statistics shards (merged by drain/stats). */
    mutable PerThread<StatShard> statShards_;
    std::atomic<std::uint64_t> repartitions_{0};
};

} // namespace vlr::core

#endif // VLR_CORE_TIERED_INDEX_H
