/**
 * @file
 * Open-loop benchmark of the concurrent retrieval engine.
 *
 * One run builds the workload's fixed index and the seed's request
 * trace (dataset generation, PQ train + add, artifact save + cold
 * start, hot tier, trace generation),
 * measures engine capacity in a closed-loop phase that keeps a fixed
 * window of requests outstanding, then replays the pre-generated
 * wl::WorkloadTrace open loop through RetrievalEngine::submitAsync at
 * the workload's fixed offered rate. Latency runs from each request's
 * scheduled send time to its callback. The replay is cut into time
 * segments and the run reports medians over the segments (and qps as
 * the median of closed-loop windows) in which the generator kept its
 * schedule and the hypervisor stole little CPU time, so a host stall
 * is not read as a program change. Served hits are checked bit for bit
 * against a serial IvfPqFastScanIndex::search on a deterministic
 * sample, and recall@10 is taken on the same sample against exact
 * search over the raw vectors.
 *
 * With --trace 1 the run replays the trace twice, untraced then with
 * bench-side spans, and times each layer from outside by wrapping
 * calls to its public functions (vecsearch, core.tiered, core.engine,
 * core.control, storage, workload). Spans are kept in memory, reduced
 * to a per-layer self-time table and exported as Chrome trace_event
 * JSON when the run ends.
 *
 * The last stdout line is one JSON object {correct, attempted, failed,
 * metrics}: end-to-end metrics with --trace 0, per-layer metrics with
 * --trace 1. Lines before it hold the human-readable report and the run
 * record (host, build, seed, offered rate, sample counts).
 *
 * Run: perfbench --workload wiki-cold|orcas-hot|tenant-churn --seed N
 *                --seconds S --trace 0|1 --out DIR [--source-id ID]
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/piecewise_linear.h"
#include "common/threadpool.h"
#include "core/access_profile.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/perf_model.h"
#include "core/tiered_index.h"
#include "metrics.h"
#include "storage/index_store.h"
#include "storage/mmap_cold_tier.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/metric.h"
#include "workload/dataset.h"
#include "workload/tenant.h"

namespace
{

using namespace vlr;
using perfbench::median;
using perfbench::Outcome;
using perfbench::Span;
using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

// --- fixed benchmark shape -------------------------------------------

constexpr std::size_t kVectors = 500000;
constexpr std::size_t kDim = 64;
constexpr std::size_t kNlist = 1024;
constexpr std::size_t kNprobe = 32;
constexpr std::size_t kK = 10;
/** Search pool workers (the dispatcher thread joins each loop). */
constexpr std::size_t kSearchThreads = 2;
constexpr std::size_t kMaxBatch = 32;
/** Closed-loop requests kept outstanding. */
constexpr std::size_t kWindow = 2 * kMaxBatch;
/** Admission queue bound on tenant-churn (tenant shares divide it). */
constexpr std::size_t kMaxQueue = 512;
/** Seed of the calibration traces that pick hot sets. */
constexpr std::uint64_t kCalibrationSeed = 0xCA11B;
/** Setups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Served requests checked for parity and recall per run. */
constexpr std::size_t kCheckSample = 200;
/** Replays of the per-layer timing probes (median taken). */
constexpr int kLayerRepeats = 5;
/** A run is flagged when its p99 send lag exceeds this share of the
 *  workload's latency limit. */
constexpr double kLagLimitShare = 0.10;
/** Seconds between control-plane rebuilds on tenant-churn. */
constexpr double kRepartitionPeriod = 0.5;
/** Host CPU share the hypervisor may steal in a window or segment
 *  that the run's figures are taken from. */
constexpr double kMaxStealShare = 0.03;
/** Longest wait for a quiet host before measuring. */
constexpr double kMaxQuietWaitSeconds = 10.0;
/** Largest share of the run the control thread may be busy and still
 *  count as sleeping in the thread budget. */
constexpr double kMaxControlDuty = 0.10;
/** Time segments an open-loop replay is split into (medians taken). */
constexpr std::size_t kSegments = 14;
/** Closed-loop windows (median taken) and the warm-up before them. */
constexpr std::size_t kWindows = 12;
constexpr double kWarmupSeconds = 0.5;
/** Request spans exported to the Chrome trace (all are analysed). */
constexpr std::size_t kExportRequests = 2000;

enum class Kind
{
    kWikiCold,
    kOrcasHot,
    kTenantChurn,
};

/** One workload: dataset shape, serving setup and its fixed load. */
struct Workload
{
    std::string name;
    Kind kind = Kind::kWikiCold;
    wl::DatasetSpec spec;
    /**
     * Offered rate in req/s, fixed once at about 20-25% of the median
     * closed-loop qps measured on a 4-vCPU Xeon (AVX2 + AVX-512BW) host,
     * so a faster commit shows lower latency at the same load. At 70%
     * the open loop's on-demand batches ran the engine near saturation,
     * and the shared host's slow periods (up to 3x) tipped it over.
     */
    double offeredRate = 0.0;
    /** Hot-tier coverage (0 = flat serving). */
    double rho = 0.0;

    /**
     * Latency limit: the Table I retrieval SLO scaled by this index's
     * size relative to the paper's corpus. Derived from constants only,
     * never from a run.
     */
    double
    latencyLimit() const
    {
        return spec.sloSearchSeconds *
               static_cast<double>(spec.numVectors) / spec.paperVectors;
    }
};

bool
makeWorkload(const std::string &name, Workload &w)
{
    w.name = name;
    if (name == "wiki-cold") {
        w.kind = Kind::kWikiCold;
        w.spec = wl::wikiAllSpec();
        w.offeredRate = 4000.0;
    } else if (name == "orcas-hot") {
        w.kind = Kind::kOrcasHot;
        w.spec = wl::orcas1kSpec();
        w.offeredRate = 2500.0;
        w.rho = 0.2;
    } else if (name == "tenant-churn") {
        w.kind = Kind::kTenantChurn;
        w.spec = wl::wikiAllSpec();
        w.offeredRate = 3000.0;
        w.rho = 0.3;
    } else {
        return false;
    }
    w.spec.numVectors = kVectors;
    w.spec.dim = kDim;
    w.spec.numClusters = kNlist;
    w.spec.nprobe = kNprobe;
    // The corpus is part of the workload and stays fixed (the preset's
    // own seed); the command-line seed draws the request trace. Under
    // ORCAS-like skew most queries land near a few clusters, so a
    // per-seed corpus would change the work per query from run to run.
    return true;
}

/** The request trace of one workload over @p horizon seconds. */
wl::WorkloadScript
makeScript(const Workload &w, double horizon)
{
    wl::WorkloadScript script;
    script.horizonSeconds = horizon;
    const double r = w.offeredRate;
    if (w.kind != Kind::kTenantChurn) {
        wl::TenantSpec t;
        t.name = "users";
        t.arrivalRate = r;
        t.zipfTheta = w.spec.queryZipf;
        t.k = kK;
        t.nprobe = kNprobe;
        script.tenants.push_back(t);
        return script;
    }
    // Three tenants whose long-run mean rate is about the offered rate.
    wl::TenantSpec premium;
    premium.name = "premium";
    premium.tenant = {1};
    premium.arrivalRate = 0.35 * r;
    premium.zipfTheta = w.spec.queryZipf;
    premium.k = kK;
    premium.nprobe = kNprobe;
    premium.deadlineSeconds = w.latencyLimit();
    premium.priority = 1;

    wl::TenantSpec standard;
    standard.name = "standard";
    standard.tenant = {2};
    standard.arrivalRate = 0.6 * r;
    standard.diurnalAmplitude = 0.5;
    standard.diurnalPeriodSeconds = horizon;
    standard.zipfTheta = w.spec.queryZipf;
    standard.k = kK;
    standard.nprobe = kNprobe;

    // 10x burst plus a hotspot flip mid-burst; a different k forces
    // batch formation to split groups.
    wl::TenantSpec bursty;
    bursty.name = "bursty";
    bursty.tenant = {3};
    bursty.arrivalRate = 0.05 * r;
    bursty.burstFactor = 10.0;
    bursty.burstStartSeconds = 0.40 * horizon;
    bursty.burstEndSeconds = 0.55 * horizon;
    bursty.hotspotFlipSeconds = {0.5 * horizon};
    bursty.hotspotFlipFraction = 0.5;
    bursty.zipfTheta = 0.9;
    bursty.k = 2 * kK;
    bursty.nprobe = kNprobe;

    script.tenants = {premium, standard, bursty};
    return script;
}

const char *
tenantName(core::TenantId id)
{
    switch (id.value) {
    case 1:
        return "premium";
    case 2:
        return "standard";
    case 3:
        return "bursty";
    default:
        return "users";
    }
}

// --- command line ----------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string outDir;
    std::string sourceId = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a, std::string &err)
{
    bool have_w = false, have_seed = false, have_s = false, have_t = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            err = "flag '" + flag + "' needs a value";
            return false;
        }
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = v;
                have_w = true;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
                have_seed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
                have_s = a.seconds >= 1.0 && a.seconds <= 60.0;
                if (!have_s) {
                    err = "--seconds must be in [1, 60]";
                    return false;
                }
            } else if (flag == "--trace") {
                if (v != "0" && v != "1") {
                    err = "--trace must be 0 or 1";
                    return false;
                }
                a.trace = v == "1";
                have_t = true;
            } else if (flag == "--out") {
                a.outDir = v;
            } else if (flag == "--source-id") {
                a.sourceId = v;
            } else {
                err = "unknown flag '" + flag + "'";
                return false;
            }
        } catch (const std::exception &) {
            err = "bad value '" + v + "' for " + flag;
            return false;
        }
    }
    if (!have_w || !have_seed || !have_s || !have_t || a.outDir.empty()) {
        err = "--workload, --seed, --seconds, --trace and --out are "
              "required";
        return false;
    }
    return true;
}

// --- setup -----------------------------------------------------------

/** Removes the artifact file when the served state is torn down. */
struct ArtifactFile
{
    std::string path;
    ~ArtifactFile()
    {
        if (!path.empty())
            std::filesystem::remove(path);
    }
};

/** Timestamps of the timed set-up steps (ns, steady clock). */
struct StepSpan
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    double seconds() const { return static_cast<double>(end - start) * 1e-9; }
};

/**
 * Everything one workload serves from. Members are declared so that
 * destruction runs engine first, then what it references.
 */
struct Served
{
    ArtifactFile artifact;
    std::unique_ptr<wl::SyntheticDataset> dataset;
    /** In-memory index trained here; the serial parity reference. */
    std::unique_ptr<vs::IvfPqFastScanIndex> index;
    /** tenant-churn: the index restored from the artifact. */
    std::unique_ptr<vs::IvfPqFastScanIndex> restored;
    std::unique_ptr<storage::MmapColdTier> coldTier;
    std::unique_ptr<core::AccessProfile> profile;
    std::unique_ptr<core::TieredIndex> tiered;
    wl::WorkloadTrace trace;
    /** tenant-churn: hot sets of the pre-flip and post-flip queries. */
    std::vector<cluster_id_t> hotA, hotB;
    std::unique_ptr<core::RetrievalEngine> engine;

    StepSpan total, save, coldStart, traceGen;
};

/** Access profile from the probe lists of @p queries (sampled). */
core::AccessProfile
profileFromQueries(const vs::IvfPqFastScanIndex &index,
                   const std::vector<const float *> &queries)
{
    std::vector<double> counts(index.nlist(), 0.0);
    for (const float *q : queries)
        for (const cluster_id_t c : index.quantizer().probe(q, kNprobe).clusters)
            counts[static_cast<std::size_t>(c)] += 1.0;
    std::vector<double> work(index.nlist()), bytes(index.nlist());
    for (std::size_t c = 0; c < index.nlist(); ++c) {
        work[c] = static_cast<double>(index.listSize(static_cast<cluster_id_t>(c)));
        bytes[c] = static_cast<double>(index.listBytes(static_cast<cluster_id_t>(c)));
    }
    return core::AccessProfile(std::move(counts), std::move(work),
                               std::move(bytes));
}

std::unique_ptr<Served>
buildServed(const Workload &w, std::uint64_t seed, double horizon,
            const std::string &out_dir)
{
    auto s = std::make_unique<Served>();
    s->total.start = nowNs();

    s->dataset = std::make_unique<wl::SyntheticDataset>(w.spec);
    s->dataset->buildVectors();
    s->index = std::make_unique<vs::IvfPqFastScanIndex>(
        s->dataset->makeCoarseQuantizer(), kDim / 4);
    s->index->train(s->dataset->vectors(), w.spec.numVectors);
    s->index->addPreassigned(s->dataset->vectors(), w.spec.numVectors,
                             s->dataset->assignments());

    s->traceGen.start = nowNs();
    const wl::WorkloadScript script = makeScript(w, horizon);
    s->trace = wl::WorkloadTrace::generate(script, *s->dataset, seed);
    s->traceGen.end = nowNs();

    s->artifact.path = out_dir + "/index-" + std::to_string(::getpid()) +
                       ".vlra";
    s->save.start = nowNs();
    storage::IndexStore::save(s->artifact.path, *s->index);
    s->save.end = nowNs();

    const core::BatchPolicy batching{.maxBatch = kMaxBatch,
                                     .timeoutSeconds = 0.0};
    s->coldStart.start = nowNs();
    switch (w.kind) {
    case Kind::kWikiCold:
        s->engine = core::EngineBuilder::fromArtifact(s->artifact.path)
                        .defaultK(kK)
                        .defaultNprobe(kNprobe)
                        .searchThreads(kSearchThreads)
                        .batching(batching)
                        .build();
        break;
    case Kind::kOrcasHot: {
        // Calibration queries: the same script under a fixed seed, so
        // the hot set is part of the workload, not of the run's seed.
        wl::WorkloadScript cal = script;
        cal.horizonSeconds = 4000.0 / w.offeredRate;
        const auto cal_trace =
            wl::WorkloadTrace::generate(cal, *s->dataset, kCalibrationSeed);
        std::vector<const float *> qs;
        for (const auto &r : cal_trace.requests())
            qs.push_back(r.query.data());
        s->profile = std::make_unique<core::AccessProfile>(
            profileFromQueries(*s->index, qs));
        s->coldTier =
            std::make_unique<storage::MmapColdTier>(s->artifact.path);
        s->engine = core::EngineBuilder::fromArtifact(s->artifact.path)
                        .tieredFromProfile(*s->profile, w.rho)
                        .hotShards(2)
                        .coldTier(s->coldTier.get())
                        .defaultK(kK)
                        .defaultNprobe(kNprobe)
                        .searchThreads(kSearchThreads)
                        .batching(batching)
                        .build();
        break;
    }
    case Kind::kTenantChurn: {
        s->restored = std::make_unique<vs::IvfPqFastScanIndex>(
            storage::IndexStore::load(s->artifact.path));
        // Hot sets from a sample of the pre- and post-flip queries of
        // the same script under a fixed seed; the control thread
        // alternates between them.
        const auto cal_trace =
            wl::WorkloadTrace::generate(script, *s->dataset, kCalibrationSeed);
        const double flip = 0.5 * horizon;
        std::vector<const float *> pre, post;
        const auto &reqs = cal_trace.requests();
        for (std::size_t i = 0; i < reqs.size(); i += 8)
            (reqs[i].atSeconds < flip ? pre : post)
                .push_back(reqs[i].query.data());
        s->hotA = profileFromQueries(*s->restored, pre).hotClusters(w.rho);
        s->hotB = profileFromQueries(*s->restored, post).hotClusters(w.rho);
        core::TieredOptions opts;
        opts.numShards = 2;
        s->tiered = std::make_unique<core::TieredIndex>(*s->restored,
                                                        s->hotA, opts);
        core::TenantPolicy policy;
        policy.enable = true;
        policy.fairService = true;
        policy.classes = {
            {.id = {1}, .name = "premium", .share = 0.4, .weight = 4.0,
             .slo = {.missRateTarget = 0.01,
                     .p99TargetSeconds = w.latencyLimit()},
             .degradable = false},
            {.id = {2}, .name = "standard", .share = 0.4, .weight = 2.0,
             .slo = {}},
            {.id = {3}, .name = "bursty", .share = 0.2, .weight = 1.0,
             .slo = {}},
        };
        s->engine = core::EngineBuilder(*s->tiered)
                        .tenantIsolation(policy)
                        .defaultK(kK)
                        .defaultNprobe(kNprobe)
                        .searchThreads(kSearchThreads)
                        .batching({.maxBatch = kMaxBatch,
                                   .timeoutSeconds = 0.0,
                                   .maxQueue = kMaxQueue})
                        .build();
        break;
    }
    }
    s->coldStart.end = nowNs();
    s->total.end = nowNs();
    return s;
}

// --- load generation -------------------------------------------------

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Sleep most of the way to @p due_ns, then spin the rest, so the
 * client thread leaves its core to the engine between sends.
 */
void
waitUntil(std::int64_t due_ns)
{
    for (;;) {
        const std::int64_t left = due_ns - nowNs();
        if (left <= 0)
            return;
        if (left > 80'000)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(left - 60'000));
        else
            cpuRelax();
    }
}

Outcome
toOutcome(core::Disposition d)
{
    switch (d) {
    case core::Disposition::kServed:
        return Outcome::kServed;
    case core::Disposition::kExpiredInQueue:
        return Outcome::kExpired;
    case core::Disposition::kRejected:
        return Outcome::kRejected;
    }
    return Outcome::kPending;
}

/** Aggregate CPU tick counters of the host (first line of /proc/stat). */
struct HostCpu
{
    double steal = 0.0;
    double total = 0.0;

    static HostCpu
    read()
    {
        std::ifstream is("/proc/stat");
        std::string cpu;
        HostCpu h;
        double v = 0.0;
        is >> cpu;
        for (int field = 0; field < 8 && (is >> v); ++field) {
            h.total += v;
            if (field == 7)
                h.steal = v;
        }
        return h;
    }

    double
    stealShareSince(const HostCpu &since) const
    {
        const double t = total - since.total;
        return t > 0.0 ? (steal - since.steal) / t : 0.0;
    }
};

/**
 * Samples the host's CPU counters every 50 ms on a background thread
 * (sleeping in between), so the run can tell which of its windows and
 * segments the hypervisor disturbed.
 */
class StealMonitor
{
  public:
    StealMonitor() : thread_([this] { run(); }) {}
    ~StealMonitor() { stop(); }

    StealMonitor(const StealMonitor &) = delete;
    StealMonitor &operator=(const StealMonitor &) = delete;

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    /** Steal share between two steady-clock instants (ns), from the
     *  samples bracketing them. */
    double
    shareBetween(std::int64_t a, std::int64_t b) const
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (samples_.size() < 2)
            return 0.0;
        std::size_t i = 0;
        while (i + 1 < samples_.size() && samples_[i + 1].t <= a)
            ++i;
        std::size_t j = i + 1;
        while (j + 1 < samples_.size() && samples_[j].t < b)
            ++j;
        return samples_[j].cpu.stealShareSince(samples_[i].cpu);
    }

  private:
    struct Sample
    {
        std::int64_t t = 0;
        HostCpu cpu;
    };

    void
    run()
    {
        std::unique_lock<std::mutex> lk(mutex_);
        while (!stop_) {
            lk.unlock();
            const Sample s{nowNs(), HostCpu::read()};
            lk.lock();
            samples_.push_back(s);
            cv_.wait_for(lk, std::chrono::milliseconds(50),
                         [this] { return stop_; });
        }
    }

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Sample> samples_;
    bool stop_ = false;
    std::thread thread_;
};

/** Bench-side spans, kept in memory until the run ends. */
struct SpanLog
{
    std::vector<Span> spans;

    std::int64_t
    add(const char *name, std::int64_t start, std::int64_t end,
        std::int64_t parent, std::uint64_t request, std::uint32_t thread)
    {
        spans.push_back({name, start, end, parent, request, thread});
        return static_cast<std::int64_t>(spans.size()) - 1;
    }
};

/**
 * Spans of one request: a root @p name from @p start to @p done, with
 * engine.queue and engine.search children rebuilt from the response's
 * stage timings (admission happens inside submit, at about @p sent).
 * Unserved requests (zero timings) get the root only. Returns the root.
 */
std::int64_t
addRequestSpans(SpanLog &log, const char *name, std::uint64_t request,
                std::int64_t start, std::int64_t sent, std::int64_t done,
                float queue_s, float search_s)
{
    const std::int64_t root = log.add(name, start, done, -1, request, 0);
    if (search_s > 0.f) {
        const auto q_end = sent + static_cast<std::int64_t>(queue_s * 1e9);
        const auto s_end = q_end + static_cast<std::int64_t>(search_s * 1e9);
        log.add("engine.queue", sent, q_end, root, request, 1);
        log.add("engine.search", q_end, s_end, root, request, 1);
    }
    return root;
}

/** Per-request record of one open-loop replay (struct of arrays). */
struct Replay
{
    bool traced = false;
    std::vector<std::int64_t> due, sent, submitEnd, done;
    std::vector<Outcome> outcome;
    /** Traced only: SearchResponse stage timings. */
    std::vector<float> queueS, searchS;
    /** Check-sample slot per request, or -1. */
    std::vector<std::int32_t> slot;
    std::vector<std::vector<vs::SearchHit>> hits;
    std::vector<std::size_t> effK, effNprobe;
    std::vector<std::size_t> sampleIndex;

    explicit Replay(std::size_t n, bool traced_run) : traced(traced_run)
    {
        due.assign(n, 0);
        sent.assign(n, 0);
        done.assign(n, 0);
        outcome.assign(n, Outcome::kPending);
        if (traced) {
            submitEnd.assign(n, 0);
            queueS.assign(n, 0.f);
            searchS.assign(n, 0.f);
        }
        slot.assign(n, -1);
        const std::size_t stride = std::max<std::size_t>(1, n / kCheckSample);
        for (std::size_t i = 0; i < n; i += stride) {
            slot[i] = static_cast<std::int32_t>(sampleIndex.size());
            sampleIndex.push_back(i);
        }
        hits.resize(sampleIndex.size());
        effK.assign(sampleIndex.size(), 0);
        effNprobe.assign(sampleIndex.size(), 0);
    }
};

/**
 * Replay @p trace open loop: each request is sent at its scheduled
 * time from this (single) client thread; the callback stores the
 * completion timestamp and disposition (and, on the check sample, the
 * hits).
 */
void
replayOpenLoop(core::RetrievalEngine &engine, const wl::WorkloadTrace &trace,
               Replay &rec)
{
    const auto &reqs = trace.requests();
    const std::int64_t t0 = nowNs() + 1'000'000;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(reqs[i].atSeconds * 1e9);
        rec.due[i] = due;
        waitUntil(due);
        rec.sent[i] = nowNs();
        Replay *r = &rec;
        engine.submitAsync(trace.request(i), [r, i](core::SearchResponse resp) {
            r->done[i] = nowNs();
            r->outcome[i] = toOutcome(resp.disposition);
            if (r->traced) {
                r->queueS[i] = static_cast<float>(resp.queueSeconds);
                r->searchS[i] = static_cast<float>(resp.searchSeconds);
            }
            const std::int32_t s = r->slot[i];
            if (s >= 0) {
                r->hits[static_cast<std::size_t>(s)] = std::move(resp.hits);
                r->effK[static_cast<std::size_t>(s)] = resp.k;
                r->effNprobe[static_cast<std::size_t>(s)] = resp.nprobe;
            }
        });
        if (rec.traced)
            rec.submitEnd[i] = nowNs();
    }
    engine.drain();
}

/** Closed-loop window state shared with the callbacks. */
struct Window
{
    std::atomic<std::size_t> outstanding{0};
    std::atomic<std::size_t> served{0};
    /** Traced only: per-request stamps and stage timings. */
    std::vector<std::int64_t> sent, done;
    std::vector<float> queueS, searchS;
};

/** One closed-loop measurement window. */
struct LoopWindow
{
    double rate = 0.0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Closed loop: keep kWindow requests outstanding from this client
 * thread for @p warmup seconds, then for @p windows windows of
 * @p window_s seconds each; returns each window's served/s.
 * Requests reuse the trace's queries and classes without deadlines,
 * so every one is served. With @p log set, each request also records
 * a client.window_request span.
 */
std::vector<LoopWindow>
closedLoop(core::RetrievalEngine &engine, const wl::WorkloadTrace &trace,
           double warmup, double window_s, std::size_t windows,
           SpanLog *log, std::size_t &attempted)
{
    Window win;
    if (log) {
        const auto cap =
            static_cast<std::size_t>(window_s * static_cast<double>(windows) *
                                     2e5) + 1024;
        win.sent.assign(cap, 0);
        win.done.assign(cap, 0);
        win.queueS.assign(cap, 0.f);
        win.searchS.assign(cap, 0.f);
    }
    const std::size_t n = trace.size();
    const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
    std::int64_t boundary = nowNs() + static_cast<std::int64_t>(warmup * 1e9);
    std::int64_t window_start = 0;
    std::size_t served_at_start = 0;
    std::vector<LoopWindow> rates;
    std::size_t j = 0;
    for (;;) {
        const std::int64_t now = nowNs();
        if (now >= boundary) {
            const std::size_t served = win.served.load();
            if (window_start != 0)
                rates.push_back(
                    {static_cast<double>(served - served_at_start) /
                         (static_cast<double>(now - window_start) * 1e-9),
                     window_start, now});
            if (rates.size() == windows)
                break;
            served_at_start = served;
            window_start = now;
            boundary = now + window_ns;
        }
        while (win.outstanding.load(std::memory_order_acquire) < kWindow) {
            core::SearchRequest req = trace.request(j % n);
            req.deadlineSeconds = 0.0;
            win.outstanding.fetch_add(1, std::memory_order_acq_rel);
            Window *w = &win;
            const std::size_t id = j;
            if (id < win.sent.size())
                win.sent[id] = nowNs();
            engine.submitAsync(req, [w, id](core::SearchResponse resp) {
                if (id < w->done.size()) {
                    w->done[id] = nowNs();
                    w->queueS[id] = static_cast<float>(resp.queueSeconds);
                    w->searchS[id] = static_cast<float>(resp.searchSeconds);
                }
                if (resp.served())
                    w->served.fetch_add(1, std::memory_order_relaxed);
                w->outstanding.fetch_sub(1, std::memory_order_acq_rel);
            });
            ++j;
        }
        cpuRelax();
    }
    engine.drain();
    attempted += j;
    if (log)
        for (std::size_t i = 0; i < std::min(j, win.sent.size()); ++i)
            addRequestSpans(*log, "client.window_request", i, win.sent[i],
                            win.sent[i], win.done[i], win.queueS[i],
                            win.searchS[i]);
    return rates;
}

// --- control plane (tenant-churn) ------------------------------------

/** Bench control thread: repartitions on a fixed schedule. */
class ControlThread
{
  public:
    ControlThread(core::TieredIndex &tiered,
                  const std::vector<cluster_id_t> &hot_a,
                  const std::vector<cluster_id_t> &hot_b)
        : tiered_(tiered), hotA_(hot_a), hotB_(hot_b),
          thread_([this] { run(); })
    {
    }

    ~ControlThread() { stop(); }

    ControlThread(const ControlThread &) = delete;
    ControlThread &operator=(const ControlThread &) = delete;

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    struct Rebuild
    {
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::size_t hotBytes = 0;
    };

    /** Read after stop(). */
    const std::vector<Rebuild> &rebuilds() const { return rebuilds_; }
    std::size_t pendingReclaimsMax() const { return pendingMax_; }
    const std::string &error() const { return error_; }

  private:
    void
    run()
    {
        auto next = Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(kRepartitionPeriod));
        bool use_b = true;
        std::unique_lock<std::mutex> lk(mutex_);
        while (!stop_) {
            if (cv_.wait_until(lk, next, [this] { return stop_; }))
                break;
            lk.unlock();
            try {
                Rebuild r;
                r.start = nowNs();
                tiered_.repartition(use_b ? hotB_ : hotA_);
                r.end = nowNs();
                const auto st = tiered_.stats();
                r.hotBytes = st.hotBytes;
                pendingMax_ = std::max(pendingMax_, st.pendingReclaims);
                rebuilds_.push_back(r);
            } catch (const std::exception &e) {
                error_ = e.what();
            }
            use_b = !use_b;
            next += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(kRepartitionPeriod));
            lk.lock();
        }
    }

    core::TieredIndex &tiered_;
    const std::vector<cluster_id_t> &hotA_;
    const std::vector<cluster_id_t> &hotB_;
    std::vector<Rebuild> rebuilds_;
    std::size_t pendingMax_ = 0;
    std::string error_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

// --- checks ----------------------------------------------------------

/**
 * Exact top-k ids of @p q over the raw vectors (scanned in place; a
 * vs::FlatIndex would copy the corpus and inflate rss_mb).
 */
std::vector<idx_t>
exactTopK(const wl::SyntheticDataset &ds, const float *q, std::size_t k)
{
    const auto vecs = ds.vectors();
    const std::size_t d = ds.spec().dim;
    const std::size_t n = ds.spec().numVectors;
    vs::TopK top(k);
    for (std::size_t i = 0; i < n; ++i)
        top.push(static_cast<idx_t>(i), vs::l2Sqr(q, vecs.data() + i * d, d));
    std::vector<idx_t> ids;
    for (const auto &h : top.sortedHits())
        ids.push_back(h.id);
    return ids;
}

struct CheckResult
{
    std::size_t compared = 0;
    std::size_t mismatches = 0;
    std::size_t recallSamples = 0;
    double recall = 0.0;
};

/**
 * Parity of every served sampled request against serial search at the
 * request's effective k/nprobe, and recall@10 against exact search.
 */
CheckResult
checkSample(const Served &s, const Replay &rec)
{
    CheckResult out;
    const auto &reqs = s.trace.requests();
    std::vector<std::size_t> served_slots;
    for (std::size_t slot = 0; slot < rec.sampleIndex.size(); ++slot)
        if (rec.outcome[rec.sampleIndex[slot]] == Outcome::kServed)
            served_slots.push_back(slot);
    std::vector<double> recall(served_slots.size(), -1.0);
    std::vector<char> mismatch(served_slots.size(), 0);
    ThreadPool pool(ThreadPool::hardwareConcurrency());
    pool.parallelForDynamic(served_slots.size(), 1, [&](std::size_t j) {
        const std::size_t slot = served_slots[j];
        const float *q = reqs[rec.sampleIndex[slot]].query.data();
        const auto ref = s.index->search(q, rec.effK[slot],
                                         rec.effNprobe[slot]);
        mismatch[j] = ref == rec.hits[slot] ? 0 : 1;
        if (rec.effK[slot] >= kK) {
            const auto exact = exactTopK(*s.dataset, q, kK);
            std::size_t found = 0;
            for (std::size_t h = 0; h < kK && h < rec.hits[slot].size(); ++h)
                if (std::find(exact.begin(), exact.end(),
                              rec.hits[slot][h].id) != exact.end())
                    ++found;
            recall[j] = static_cast<double>(found) / static_cast<double>(kK);
        }
    });
    double sum = 0.0;
    for (std::size_t j = 0; j < served_slots.size(); ++j) {
        ++out.compared;
        out.mismatches += static_cast<std::size_t>(mismatch[j]);
        if (recall[j] >= 0.0) {
            sum += recall[j];
            ++out.recallSamples;
        }
    }
    out.recall = out.recallSamples ? sum / static_cast<double>(out.recallSamples)
                                   : 0.0;
    return out;
}

// --- reporting -------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

class Report
{
  public:
    void
    add(const std::string &name, const std::string &unit, double value)
    {
        metrics_.push_back({name, unit, std::isfinite(value) ? value : 0.0});
    }

    const Metric *
    find(const std::string &name) const
    {
        for (const auto &m : metrics_)
            if (m.name == name)
                return &m;
        return nullptr;
    }

    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuInfoField(const std::string &key)
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind(key, 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(std::min(colon + 2, line.size()));
        }
    }
    return "";
}

bool
cpuHasFlag(const std::string &flag)
{
    std::istringstream flags(cpuInfoField("flags"));
    std::string f;
    while (flags >> f)
        if (f == flag)
            return true;
    return false;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Latency / lag statistics of one open-loop replay. */
struct ReplayStats
{
    /** Whole-replay percentiles (reported alongside the medians). */
    perfbench::Percentile p50, p99, lagP50, lagP99;
    /** The run's figures: medians over the steady segments. */
    double segP50 = 0.0, segP90 = 0.0, segP99 = 0.0, segAttainment = 0.0;
    /** Segments the medians are over (send lag within its limit). */
    std::size_t steadySegments = 0;
    /** Fewest samples beyond p99 in any of those segments. */
    std::size_t segMinBeyond = 0;
    /** Per-segment p50/p99 in seconds (for the run record). */
    std::vector<double> segP50s, segP99s;
    double attainment = 0.0;
    std::size_t offered = 0, served = 0, rejected = 0, expired = 0,
                pending = 0;
};

/**
 * Median rate over the windows the hypervisor left alone (at most
 * kMaxStealShare stolen), or over the least-stolen half when fewer than
 * half qualify. Every window's rate is appended to @p all_rates.
 */
double
steadyRate(const std::vector<LoopWindow> &windows, const StealMonitor &host,
           std::vector<double> &all_rates)
{
    std::vector<std::pair<double, double>> by_steal; // (steal, rate)
    std::vector<double> steady;
    for (const LoopWindow &w : windows) {
        all_rates.push_back(w.rate);
        const double steal = host.shareBetween(w.startNs, w.endNs);
        by_steal.emplace_back(steal, w.rate);
        if (steal <= kMaxStealShare)
            steady.push_back(w.rate);
    }
    if (2 * steady.size() < windows.size()) {
        std::stable_sort(by_steal.begin(), by_steal.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        steady.clear();
        for (std::size_t i = 0; i < (windows.size() + 1) / 2; ++i)
            steady.push_back(by_steal[i].second);
    }
    return median(steady);
}

ReplayStats
replayStats(const Replay &rec, double limit, const StealMonitor &host)
{
    ReplayStats st;
    const std::size_t n = rec.due.size();
    st.offered = n;
    std::vector<double> latency(n, 0.0), served_lat, lag;
    served_lat.reserve(n);
    lag.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        lag.push_back(perfbench::sendLagSeconds(rec.due[i], rec.sent[i]));
        switch (rec.outcome[i]) {
        case Outcome::kServed:
            latency[i] = perfbench::latencySeconds(rec.due[i], rec.done[i]);
            served_lat.push_back(latency[i]);
            ++st.served;
            break;
        case Outcome::kRejected:
            ++st.rejected;
            break;
        case Outcome::kExpired:
            ++st.expired;
            break;
        case Outcome::kPending:
            ++st.pending;
            break;
        }
    }
    st.p50 = perfbench::percentile(served_lat, 50.0);
    st.p99 = perfbench::percentile(served_lat, 99.0);
    st.lagP50 = perfbench::percentile(lag, 50.0);
    st.lagP99 = perfbench::percentile(lag, 99.0);
    st.attainment = perfbench::sloAttainment(rec.outcome, latency, limit);
    auto all_segs = perfbench::segmentStats(rec.due, rec.sent, rec.outcome,
                                            latency, limit, kSegments);
    for (auto &sg : all_segs)
        sg.stealShare = host.shareBetween(sg.startNs, sg.endNs);
    const auto segs = perfbench::steadySegments(
        all_segs, kLagLimitShare * limit, kMaxStealShare);
    st.steadySegments = segs.size();
    std::vector<double> p50s, p90s, p99s, att;
    st.segMinBeyond = segs.empty() ? 0 : segs.front().p99.beyond;
    for (const auto &sg : segs) {
        p50s.push_back(sg.p50.value);
        p90s.push_back(sg.p90.value);
        p99s.push_back(sg.p99.value);
        att.push_back(sg.attainment);
        st.segMinBeyond = std::min(st.segMinBeyond, sg.p99.beyond);
    }
    st.segP50 = median(p50s);
    st.segP90 = median(p90s);
    st.segP99 = median(p99s);
    st.segP50s = p50s;
    st.segP99s = p99s;
    st.segAttainment = median(att);
    return st;
}

// --- traced-run layer probes ----------------------------------------

/** Sampled trace queries with their own nprobe/k. */
struct ProbeQuery
{
    const float *q = nullptr;
    std::size_t k = kK;
    std::size_t nprobe = kNprobe;
};

/** vecsearch layer replayed serially on each query's own probe list. */
void
probeVecsearch(const vs::IvfPqFastScanIndex &index,
               const std::vector<ProbeQuery> &qs, SpanLog &log,
               Report &rep, std::map<std::string, double> &breakdown)
{
    const std::size_t m = index.pq().numSub();
    std::vector<float> lut(index.pq().lutSize());
    std::vector<std::uint16_t> scores;
    vs::SearchScratch scratch;
    std::vector<double> cq, lutv, kernel, scan;
    double codes = 0.0, bytes = 0.0;
    std::uint64_t req = 1u << 30;
    for (int rep_i = 0; rep_i < kLayerRepeats; ++rep_i) {
        double cq_ns = 0, lut_ns = 0, kern_ns = 0, sc_ns = 0;
        double rep_codes = 0, rep_bytes = 0;
        for (const ProbeQuery &pq : qs) {
            const std::int64_t t0 = nowNs();
            const auto pl = index.quantizer().probe(pq.q, pq.nprobe);
            const std::int64_t t1 = nowNs();
            index.pq().computeLut(pq.q, lut.data());
            const vs::QuantizedLut qlut = vs::quantizeLut(m, lut);
            const std::int64_t t2 = nowNs();
            for (const cluster_id_t c : pl.clusters) {
                const std::size_t n = index.listSize(c);
                if (n == 0)
                    continue;
                const std::size_t nb =
                    (n + vs::kFastScanBlock - 1) / vs::kFastScanBlock;
                if (scores.size() < nb * vs::kFastScanBlock)
                    scores.resize(nb * vs::kFastScanBlock);
                vs::scanPq4Blocks(m, index.listPacked(c).data(), nb, qlut,
                                  scores.data());
                rep_codes += static_cast<double>(n);
                rep_bytes += static_cast<double>(index.listBytes(c));
            }
            const std::int64_t t3 = nowNs();
            index.searchClusters(pq.q, pq.k, pl.clusters, nullptr, &scratch);
            const std::int64_t t4 = nowNs();
            cq_ns += static_cast<double>(t1 - t0);
            lut_ns += static_cast<double>(t2 - t1);
            kern_ns += static_cast<double>(t3 - t2);
            sc_ns += static_cast<double>(t4 - t3);
            const std::int64_t parent =
                log.add("vecsearch.query", t0, t4, -1, req, 0);
            log.add("vecsearch.cq", t0, t1, parent, req, 0);
            log.add("vecsearch.lut", t1, t2, parent, req, 0);
            log.add("vecsearch.kernel", t2, t3, parent, req, 0);
            log.add("vecsearch.search_clusters", t3, t4, parent, req, 0);
            ++req;
        }
        const double nq = static_cast<double>(qs.size());
        cq.push_back(cq_ns / nq);
        lutv.push_back(lut_ns / nq);
        kernel.push_back(kern_ns);
        // searchClusters rebuilds its LUT; list scan = the rest.
        scan.push_back(std::max(1.0, sc_ns - lut_ns));
        codes = rep_codes / nq;
        bytes = rep_bytes / nq;
    }
    const double total_codes = codes * static_cast<double>(qs.size());
    const double kern_med = median(kernel);
    const double scan_med = median(scan);
    rep.add("vecsearch.cq_us", "us", median(cq) * 1e-3);
    rep.add("vecsearch.lut_us", "us", median(lutv) * 1e-3);
    rep.add("vecsearch.kernel_gcodes", "Gcodes/s", total_codes / kern_med);
    rep.add("vecsearch.list_scan_gcodes", "Gcodes/s", total_codes / scan_med);
    rep.add("vecsearch.topk_share", "ratio", 1.0 - kern_med / scan_med);
    rep.add("vecsearch.codes_per_query", "count", codes);
    rep.add("vecsearch.bytes_per_query", "B", bytes);

    const double nq = static_cast<double>(qs.size());
    breakdown["cq"] = median(cq) * 1e-3;
    breakdown["lut"] = median(lutv) * 1e-3;
    breakdown["kernel"] = kern_med / nq * 1e-3;
    breakdown["topk"] = std::max(0.0, (scan_med - kern_med) / nq * 1e-3);
}

/**
 * Fig. 10 model: fit SearchPerfModel from CQ and LUT+list-scan stage
 * wall times at batch sizes 1-64 on a pool shaped like the engine's.
 */
double
fitModelAt(const vs::IvfPqFastScanIndex &index,
           const std::vector<ProbeQuery> &qs, double batch, SpanLog &log)
{
    ThreadPool pool(kSearchThreads);
    std::vector<PlKnot> cq_knots, lut_knots;
    std::vector<vs::ProbeList> probes(64);
    for (const std::size_t b : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul, 64ul}) {
        if (b > qs.size())
            break;
        std::vector<double> cq_s, scan_s;
        for (int r = 0; r < kLayerRepeats; ++r) {
            const std::int64_t t0 = nowNs();
            pool.parallelForDynamic(b, 1, [&](std::size_t i) {
                probes[i] = index.quantizer().probe(qs[i].q, qs[i].nprobe);
            });
            const std::int64_t t1 = nowNs();
            pool.parallelForDynamic(b, 1, [&](std::size_t i) {
                static thread_local vs::SearchScratch scratch;
                index.searchClusters(qs[i].q, qs[i].k, probes[i].clusters,
                                     nullptr, &scratch);
            });
            const std::int64_t t2 = nowNs();
            log.add("vecsearch.batch_cq", t0, t1, -1, b, 0);
            log.add("vecsearch.batch_scan", t1, t2, -1, b, 0);
            cq_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
            scan_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
        }
        cq_knots.push_back({static_cast<double>(b), median(cq_s)});
        lut_knots.push_back({static_cast<double>(b), median(scan_s)});
    }
    const auto model = core::SearchPerfModel::fromKnots(cq_knots, lut_knots);
    return model.tSearch(batch);
}

/** core.tiered: batched tiered search replayed on the sample. */
void
probeTiered(const core::TieredIndex &tiered,
            const std::vector<ProbeQuery> &qs, std::size_t batch,
            SpanLog &log, Report &rep)
{
    ThreadPool pool(kSearchThreads);
    std::vector<double> route, scan;
    const std::size_t d = tiered.dim();
    for (int r = 0; r < kLayerRepeats; ++r) {
        double route_s = 0.0, scan_s = 0.0;
        std::size_t queries = 0;
        for (std::size_t b = 0; b < qs.size(); b += batch) {
            const std::size_t nq = std::min(batch, qs.size() - b);
            // A batch shares one k, as the dispatcher's groups do.
            std::vector<float> q(nq * d);
            std::vector<std::size_t> nprobes(nq);
            for (std::size_t i = 0; i < nq; ++i) {
                std::copy(qs[b + i].q, qs[b + i].q + d, q.begin() + i * d);
                nprobes[i] = qs[b + i].nprobe;
            }
            core::TieredBatchStats bs;
            const std::int64_t t0 = nowNs();
            tiered.searchBatchParallel(q, nq, kK, nprobes, pool, &bs);
            log.add("tiered.search_batch", t0, nowNs(), -1, b, 0);
            route_s += bs.routeSeconds;
            scan_s += bs.scanSeconds;
            queries += nq;
        }
        route.push_back(route_s / static_cast<double>(queries));
        scan.push_back(scan_s / static_cast<double>(queries));
    }
    rep.add("tiered.route_us", "us", median(route) * 1e6);
    rep.add("tiered.scan_us", "us", median(scan) * 1e6);
}

/** Live tier counters over the open-loop phase (stats() deltas). */
void
tieredDeltas(const core::TieredStatsSnapshot &a,
             const core::TieredStatsSnapshot &b, Report &rep)
{
    const double q = static_cast<double>(b.queries - a.queries);
    auto sum = [](const auto &v) {
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    const double shard_calls = sum(b.shardScanCounts) - sum(a.shardScanCounts);
    const double shard_s = sum(b.shardScanSeconds) - sum(a.shardScanSeconds);
    const double cold_calls =
        static_cast<double>(b.coldScanCounts - a.coldScanCounts);
    const double cold_s = b.coldScanSeconds - a.coldScanSeconds;
    const double hit = q > 0 ? (b.meanHitRate * static_cast<double>(b.queries) -
                                a.meanHitRate * static_cast<double>(a.queries)) /
                                   q
                             : 0.0;
    rep.add("tiered.hit_rate", "ratio", hit);
    rep.add("tiered.hot_only_share", "ratio",
            q > 0 ? static_cast<double>(b.hotOnlyQueries - a.hotOnlyQueries) / q
                  : 0.0);
    rep.add("tiered.backend_calls_per_query", "count",
            q > 0 ? (shard_calls + cold_calls) / q : 0.0);
    rep.add("tiered.shard_scan_us", "us",
            shard_calls > 0 ? shard_s / shard_calls * 1e6 : 0.0);
    rep.add("tiered.cold_scan_us", "us",
            cold_calls > 0 ? cold_s / cold_calls * 1e6 : 0.0);
}

/**
 * Chrome trace_event JSON of the recorded spans: every layer-probe span
 * and the spans of the first kExportRequests requests of each loop
 * (all spans feed the self-time table). Returns the spans written.
 */
std::size_t
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    std::size_t written = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string layer = perfbench::layerOf(s.name);
        if ((layer == "client" || layer == "engine") &&
            s.request >= kExportRequests)
            continue;
        os << (written++ ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
           << ",\"cat\":" << jsonString(perfbench::layerOf(s.name))
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
           << ",\"ts\":" << jsonNumber(static_cast<double>(s.startNs - origin) * 1e-3)
           << ",\"dur\":" << jsonNumber(static_cast<double>(s.endNs - s.startNs) * 1e-3)
           << ",\"args\":{\"request\":" << s.request
           << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return written;
}

/** Spans of one traced open-loop replay, reconstructed per request. */
void
requestSpans(const Replay &rec, SpanLog &log)
{
    for (std::size_t i = 0; i < rec.due.size(); ++i) {
        const std::int64_t root =
            addRequestSpans(log, "client.request", i, rec.due[i],
                            rec.sent[i], rec.done[i] ? rec.done[i] : rec.sent[i],
                            rec.queueS[i], rec.searchS[i]);
        log.add("client.send_lag", rec.due[i], rec.sent[i], root, i, 0);
        log.add("engine.submit", rec.sent[i], rec.submitEnd[i], root, i, 0);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string err;
    if (!parseArgs(argc, argv, args, err)) {
        std::cerr << "perfbench: " << err << "\n"
                  << "usage: perfbench --workload wiki-cold|orcas-hot|"
                     "tenant-churn --seed N --seconds S --trace 0|1 "
                     "--out DIR [--source-id ID]\n";
        return 2;
    }
    Workload w;
    if (!makeWorkload(args.workload, w)) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }
    std::filesystem::create_directories(args.outDir);
    // Fine-grained sleeps for the open-loop client (Linux timer slack
    // defaults to 50 us).
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

    // Thread budget: client + dispatcher + search workers must fit the
    // cores. The steal monitor sleeps between 50 ms samples; the
    // tenant-churn control thread sleeps between rebuilds and is checked
    // by its duty cycle (at most kMaxControlDuty) after the run.
    const std::size_t nproc = ThreadPool::hardwareConcurrency();
    const std::size_t busy_threads = 1 + 1 + kSearchThreads;
    bool budget_ok = busy_threads <= nproc;
    if (!budget_ok)
        std::cerr << "perfbench: thread budget " << busy_threads
                  << " exceeds nproc " << nproc << "\n";

    // Phase lengths: the measured window is split between the
    // closed-loop capacity phase and the open-loop replay; a traced run
    // replays each phase twice (untraced, then traced).
    const double closed_s = 0.3 * args.seconds / (args.trace ? 2.0 : 1.0);
    const double open_s = 0.7 * args.seconds / (args.trace ? 2.0 : 1.0);
    const std::size_t windows = args.trace ? kWindows / 2 : kWindows;

    std::cout << "perfbench " << w.name << " seed " << args.seed
              << " trace " << args.trace << "\n";

    StealMonitor host;

    // --- setup (median of several for setup_s) ---
    std::vector<double> setup_times;
    std::unique_ptr<Served> s;
    for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
        s.reset();
        s = buildServed(w, args.seed, open_s, args.outDir);
        setup_times.push_back(s->total.seconds());
    }
    const double setup_s = median(setup_times);
    core::RetrievalEngine &engine = *s->engine;
    const double limit = w.latencyLimit();
    std::cout << "setup: " << setup_times.size() << " x, median "
              << setup_s << " s; trace " << s->trace.size()
              << " requests over " << open_s << " s at "
              << w.offeredRate << " req/s; limit " << limit * 1e3
              << " ms\n";

    // Measure on a quiet host: wait (bounded) for a half second in
    // which the hypervisor stole little CPU time.
    const std::int64_t wait_start = nowNs();
    while (secondsSince(wait_start) < kMaxQuietWaitSeconds) {
        const std::int64_t t0 = nowNs();
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        if (host.shareBetween(t0, nowNs()) <= kMaxStealShare)
            break;
    }
    const double quiet_wait_s = secondsSince(wait_start);

    std::size_t attempted = 0;
    std::size_t failed = 0;
    const std::int64_t measure_start = nowNs();
    std::unique_ptr<ControlThread> control;
    const std::int64_t control_start = nowNs();
    if (w.kind == Kind::kTenantChurn)
        control = std::make_unique<ControlThread>(*s->tiered, s->hotA,
                                                  s->hotB);

    // --- closed-loop capacity ---
    SpanLog log;
    std::vector<double> window_qps, traced_window_qps;
    const double qps = steadyRate(
        closedLoop(engine, s->trace, kWarmupSeconds, closed_s / windows,
                   windows, nullptr, attempted),
        host, window_qps);
    double traced_qps = 0.0;
    if (args.trace)
        traced_qps = steadyRate(closedLoop(engine, s->trace, 0.0,
                                           closed_s / windows, windows, &log,
                                           attempted),
                                host, traced_window_qps);

    // --- open-loop replay ---
    const core::TieredIndex *tiered = engine.tiered();
    core::TieredStatsSnapshot tier_before;
    if (tiered)
        tier_before = tiered->stats();
    Replay rec(s->trace.size(), false);
    replayOpenLoop(engine, s->trace, rec);
    attempted += s->trace.size();
    const auto engine_after = engine.stats();
    core::TieredStatsSnapshot tier_after;
    if (tiered)
        tier_after = tiered->stats();
    std::unique_ptr<Replay> traced_rec;
    if (args.trace) {
        traced_rec = std::make_unique<Replay>(s->trace.size(), true);
        replayOpenLoop(engine, s->trace, *traced_rec);
        attempted += s->trace.size();
    }
    const auto engine_traced = engine.stats();
    double control_duty = 0.0;
    if (control) {
        control->stop();
        if (!control->error().empty()) {
            std::cerr << "perfbench: repartition failed: "
                      << control->error() << "\n";
            ++failed;
        }
        double busy = 0.0;
        for (const auto &r : control->rebuilds())
            busy += static_cast<double>(r.end - r.start) * 1e-9;
        control_duty = busy / secondsSince(control_start);
        if (control_duty > kMaxControlDuty) {
            budget_ok = false;
            std::cerr << "perfbench: control thread busy " << control_duty
                      << " of the run; it no longer fits the budget\n";
        }
    }

    const double steal_share = host.shareBetween(measure_start, nowNs());
    const ReplayStats st = replayStats(rec, limit, host);
    failed += st.pending;

    // --- correctness: parity + recall on the check sample ---
    CheckResult check = checkSample(*s, rec);
    if (traced_rec) {
        const CheckResult c2 = checkSample(*s, *traced_rec);
        check.compared += c2.compared;
        check.mismatches += c2.mismatches;
        failed += replayStats(*traced_rec, limit, host).pending;
    }
    failed += check.mismatches;
    const bool p99_supported = st.segMinBeyond >= perfbench::kMinBeyond;
    const bool lag_ok = st.lagP99.value <= kLagLimitShare * limit;
    const bool correct = failed == 0 && check.compared > 0 && p99_supported;
    if (!p99_supported)
        std::cerr << "perfbench: a segment's p99 has only "
                  << st.segMinBeyond << " samples beyond it (need "
                  << perfbench::kMinBeyond << ")\n";
    if (!lag_ok)
        std::cerr << "perfbench: generator p99 send lag "
                  << st.lagP99.value * 1e3 << " ms exceeds "
                  << kLagLimitShare << " of the latency limit; "
                  << "run flagged as scheduler noise\n";

    Report e2e;
    e2e.add("setup_s", "s", setup_s);
    e2e.add("qps", "req/s", qps);
    e2e.add("p50_ms", "ms", st.segP50 * 1e3);
    e2e.add("p90_ms", "ms", st.segP90 * 1e3);
    e2e.add("p99_ms", "ms", st.segP99 * 1e3);
    e2e.add("slo_attainment", "ratio", st.segAttainment);
    e2e.add("recall_at_10", "ratio", check.recall);

    // --- per-layer (traced run) ---
    Report layers;
    std::map<std::string, double> breakdown;
    if (args.trace) {
        const Replay &tr = *traced_rec;
        const ReplayStats tst = replayStats(tr, limit, host);
        std::vector<double> queue, search, overhead, submit;
        for (std::size_t i = 0; i < tr.due.size(); ++i) {
            submit.push_back(static_cast<double>(tr.submitEnd[i] - tr.sent[i]) * 1e-9);
            if (tr.outcome[i] != Outcome::kServed)
                continue;
            queue.push_back(tr.queueS[i]);
            search.push_back(tr.searchS[i]);
            overhead.push_back(
                static_cast<double>(tr.done[i] - tr.sent[i]) * 1e-9 -
                tr.queueS[i] - tr.searchS[i]);
        }
        const double batches = static_cast<double>(engine_traced.batches -
                                                   engine_after.batches);
        const double batch_mean =
            batches > 0 ? static_cast<double>(engine_traced.served -
                                              engine_after.served) /
                              batches
                        : 0.0;
        const double search_p50 = median(search);

        // Sampled trace queries for the layer probes.
        std::vector<ProbeQuery> qs;
        for (const std::size_t i : rec.sampleIndex) {
            const auto &r = s->trace.requests()[i];
            qs.push_back({r.query.data(), r.k ? r.k : kK,
                          r.nprobe ? r.nprobe : kNprobe});
        }
        probeVecsearch(*s->index, qs, log, layers, breakdown);
        if (tiered)
            probeTiered(*tiered, qs,
                        std::max<std::size_t>(1, static_cast<std::size_t>(
                                                     std::lround(batch_mean))),
                        log, layers);
        const double model_s = fitModelAt(*s->index, qs, batch_mean, log);

        layers.add("engine.queue_p50_ms", "ms",
                   perfbench::percentile(queue, 50.0).value * 1e3);
        layers.add("engine.queue_p99_ms", "ms",
                   perfbench::percentile(queue, 99.0).value * 1e3);
        layers.add("engine.search_p50_ms", "ms", search_p50 * 1e3);
        layers.add("engine.batch_mean", "count", batch_mean);
        layers.add("engine.dispatch_overhead_us", "us", median(overhead) * 1e6);
        layers.add("engine.submit_us", "us", median(submit) * 1e6);
        layers.add("engine.rejected", "count", static_cast<double>(tst.rejected));
        layers.add("engine.expired", "count", static_cast<double>(tst.expired));
        layers.add("storage.save_s", "s", s->save.seconds());
        layers.add("storage.cold_start_s", "s", s->coldStart.seconds());
        layers.add("storage.cold_resident_mb", "MB",
                   tiered ? static_cast<double>(tier_after.coldResidentBytes) / 1e6
                          : 0.0);
        layers.add("client.send_lag_p50_ms", "ms", tst.lagP50.value * 1e3);
        layers.add("client.send_lag_p99_ms", "ms", tst.lagP99.value * 1e3);
        layers.add("workload.trace_gen_s", "s", s->traceGen.seconds());
        layers.add("model.tsearch_err", "ratio",
                   search_p50 > 0 ? std::fabs(model_s - search_p50) / search_p50
                                  : 0.0);
        layers.add("trace.untraced_qps", "req/s", qps);
        layers.add("trace.qps", "req/s", traced_qps);
        layers.add("trace.untraced_p50_ms", "ms", st.segP50 * 1e3);
        layers.add("trace.p50_ms", "ms", tst.segP50 * 1e3);
        layers.add("trace.qps_overhead", "ratio", 1.0 - traced_qps / qps);
        layers.add("trace.p50_overhead", "ratio",
                   tst.segP50 / st.segP50 - 1.0);
        layers.add("check.recall_at_10", "ratio", check.recall);

        // Layers only some workloads have (reported, not in the JSON
        // line, which carries the metrics every workload measures).
        if (tiered)
            tieredDeltas(tier_before, tier_after, layers);
        if (control) {
            std::vector<double> ms, mb;
            for (const auto &r : control->rebuilds()) {
                ms.push_back(static_cast<double>(r.end - r.start) * 1e-6);
                mb.push_back(static_cast<double>(r.hotBytes) / 1e6);
                log.add("control.repartition", r.start, r.end, -1, 0, 2);
            }
            layers.add("control.repartition_ms", "ms", median(ms));
            layers.add("control.rebuilt_mb", "MB", median(mb));
            layers.add("control.pending_reclaims_max", "count",
                       static_cast<double>(control->pendingReclaimsMax()));
            std::map<std::uint64_t, std::vector<double>> tenant_lat;
            for (std::size_t i = 0; i < tr.due.size(); ++i)
                if (tr.outcome[i] == Outcome::kServed)
                    tenant_lat[s->trace.requests()[i].tenant.value].push_back(
                        perfbench::latencySeconds(tr.due[i], tr.done[i]));
            double work_total = 0.0;
            std::map<std::uint64_t, double> work;
            for (const auto &t : engine_traced.tenants) {
                double before = 0.0;
                for (const auto &b : engine_after.tenants)
                    if (b.tenant == t.tenant)
                        before = static_cast<double>(b.servedWork);
                work[t.tenant.value] = static_cast<double>(t.servedWork) - before;
                work_total += work[t.tenant.value];
            }
            for (const std::uint64_t id : {1u, 2u, 3u}) {
                const std::string base =
                    std::string("engine.tenant.") + tenantName({id});
                layers.add(base + ".p99_ms", "ms",
                           perfbench::percentile(tenant_lat[id], 99.0).value * 1e3);
                layers.add(base + ".work_share", "ratio",
                           work_total > 0 ? work[id] / work_total : 0.0);
            }
        }

        // Set-up step spans and the traced replay's request spans.
        log.add("storage.save", s->save.start, s->save.end, -1, 0, 0);
        log.add("storage.cold_start", s->coldStart.start, s->coldStart.end,
                -1, 0, 0);
        log.add("workload.trace_gen", s->traceGen.start, s->traceGen.end, -1,
                0, 0);
        requestSpans(tr, log);
    }
    s.reset(); // tear down (and delete the artifact) before reading RSS
    e2e.add("rss_mb", "MB", peakRssMb());

    // --- report ---
    std::cout << "\nend to end (untraced):\n";
    for (const auto &m : e2e.all())
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    std::cout << "  samples: recall over " << check.recallSamples
              << " sampled requests; latency and attainment are medians "
                 "over "
              << st.steadySegments << " of " << kSegments
              << " segments (fewest beyond p99 in one: "
              << st.segMinBeyond << "); whole replay: " << st.p99.count
              << " served, p50 " << st.p50.value * 1e3 << " ms, p99 "
              << st.p99.value * 1e3 << " ms (" << st.p99.beyond
              << " beyond), attainment " << st.attainment
              << "\n  offered " << st.offered << ", rejected "
              << st.rejected << ", expired " << st.expired
              << "; qps is the median of " << windows
              << " closed-loop windows\n  checks: " << check.compared
              << " served requests compared bit for bit, "
              << check.mismatches << " mismatches\n";
    if (args.trace) {
        std::cout << "\nper layer (traced):\n";
        for (const auto &m : layers.all())
            std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                      << "\n";
        const double q_us = breakdown["cq"] + breakdown["lut"] +
                            breakdown["kernel"] + breakdown["topk"];
        std::cout << "\nserial query breakdown (us, share):";
        for (const char *k : {"cq", "lut", "kernel", "topk"})
            std::cout << "  " << k << " " << breakdown[k] << " ("
                      << breakdown[k] / q_us << ")";
        const Metric *bm = layers.find("engine.batch_mean");
        const Metric *sp = layers.find("engine.search_p50_ms");
        const double lanes = static_cast<double>(kSearchThreads + 1);
        // A batch runs its queries across the lanes in parallel, so it
        // costs at least one query.
        const double rounds = std::max(1.0, bm->value / lanes);
        std::cout << "\n  per query " << q_us << " us x max(1, batch "
                  << bm->value << " / " << lanes << " lanes) = "
                  << q_us * rounds * 1e-3
                  << " ms vs engine.search_p50_ms " << sp->value << " ms\n";

        std::cout << "\nself time by span (ms total / self):\n";
        std::map<std::string, double> layer_self;
        for (const auto &[name, t] : perfbench::selfTimes(log.spans)) {
            std::cout << "  " << name << ": " << t.spans << " spans, "
                      << t.totalNs * 1e-6 << " / " << t.selfNs * 1e-6
                      << "\n";
            layer_self[perfbench::layerOf(name)] += t.selfNs * 1e-6;
        }
        std::cout << "self time by layer (ms):";
        for (const auto &[layer, ms] : layer_self)
            std::cout << "  " << layer << " " << ms;
        std::cout << "\n";

        const std::string tpath = args.outDir + "/" + w.name + "-seed" +
                                  std::to_string(args.seed) + ".trace.json";
        const std::size_t written = writeChromeTrace(tpath, log.spans);
        std::cout << "wrote " << tpath << " (" << written << " of "
                  << log.spans.size() << " spans)\n";
    }

    // --- run record ---
    std::ostringstream record;
    record << "{\"workload\":" << jsonString(w.name)
           << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
           << ",\"cpu\":" << jsonString(cpuInfoField("model name"))
           << ",\"simd\":" << (vs::fastScanHasSimd() ? "true" : "false")
           << ",\"avx512bw\":" << (cpuHasFlag("avx512bw") ? "true" : "false")
           << ",\"nproc\":" << nproc
           << ",\"compiler\":" << jsonString(__VERSION__)
           << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
           << ",\"source\":" << jsonString(args.sourceId)
           << ",\"offered_rate\":" << jsonNumber(w.offeredRate)
           << ",\"latency_limit_ms\":" << jsonNumber(limit * 1e3)
           << ",\"closed_loop_window\":" << kWindow
           << ",\"setup_repeats\":" << setup_times.size()
           << ",\"samples\":{\"latency\":" << st.p99.count
           << ",\"beyond_p99\":" << st.p99.beyond
           << ",\"segments\":" << kSegments
           << ",\"steady_segments\":" << st.steadySegments
           << ",\"segment_min_beyond_p99\":" << st.segMinBeyond
           << ",\"qps_windows\":" << windows << ",\"segment_p50_ms\":[";
    for (std::size_t i = 0; i < st.segP50s.size(); ++i)
        record << (i ? "," : "") << jsonNumber(st.segP50s[i] * 1e3);
    record << "],\"segment_p99_ms\":[";
    for (std::size_t i = 0; i < st.segP99s.size(); ++i)
        record << (i ? "," : "") << jsonNumber(st.segP99s[i] * 1e3);
    record << "],\"window_qps\":[";
    for (std::size_t i = 0; i < window_qps.size(); ++i)
        record << (i ? "," : "") << jsonNumber(window_qps[i]);
    record << "]"
           << ",\"lag\":" << st.lagP99.count
           << ",\"beyond_lag_p99\":" << st.lagP99.beyond
           << ",\"checked\":" << check.compared
           << ",\"recall\":" << check.recallSamples << "}"
           << ",\"valid\":{\"p99_supported\":" << (p99_supported ? "true" : "false")
           << ",\"send_lag_ok\":" << (lag_ok ? "true" : "false")
           << ",\"lag_limit_share\":" << jsonNumber(kLagLimitShare)
           << ",\"thread_budget_ok\":" << (budget_ok ? "true" : "false")
           << ",\"threads\":{\"client\":1,\"dispatcher\":1,\"search\":"
           << kSearchThreads << ",\"control\":" << (control ? 1 : 0)
           << "},\"control_duty\":" << jsonNumber(control_duty)
           << ",\"host_steal_share\":" << jsonNumber(steal_share)
           << ",\"quiet_wait_s\":" << jsonNumber(quiet_wait_s) << "}}";
    std::cout << "\nrun record: " << record.str() << "\n";
    {
        std::ofstream os(args.outDir + "/" + w.name + "-seed" +
                         std::to_string(args.seed) + "-trace" +
                         (args.trace ? "1" : "0") + ".record.json");
        os << record.str() << "\n";
    }

    // --- result line ---
    static const char *kLayerJson[] = {
        "vecsearch.cq_us", "vecsearch.lut_us", "vecsearch.kernel_gcodes",
        "vecsearch.list_scan_gcodes", "vecsearch.topk_share",
        "vecsearch.codes_per_query", "vecsearch.bytes_per_query",
        "engine.queue_p50_ms", "engine.queue_p99_ms",
        "engine.search_p50_ms", "engine.batch_mean",
        "engine.dispatch_overhead_us", "engine.submit_us",
        "engine.rejected", "engine.expired", "storage.save_s",
        "storage.cold_start_s", "storage.cold_resident_mb",
        "client.send_lag_p50_ms", "client.send_lag_p99_ms",
        "workload.trace_gen_s", "model.tsearch_err", "trace.untraced_qps",
        "trace.qps", "trace.untraced_p50_ms", "trace.p50_ms",
        "trace.qps_overhead", "trace.p50_overhead", "check.recall_at_10"};
    // p99_ms and recall_at_10 are reported above but carry no bound:
    // on this class of shared host, micro-stalls that a fanned-out
    // tiered batch waits on move the p99 of the tiered workloads by
    // 30-45% between runs, and recall of this PQ4 index is ~0.05 (wiki)
    // and ~0.002 (orcas), too close to 0 to bound.
    static const char *kE2eJson[] = {"setup_s", "qps", "p50_ms", "p90_ms",
                                     "slo_attainment", "rss_mb"};
    std::vector<const Metric *> out;
    if (args.trace) {
        for (const char *name : kLayerJson)
            out.push_back(layers.find(name));
    } else {
        for (const char *name : kE2eJson)
            out.push_back(e2e.find(name));
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::cout << (i ? ", " : "") << jsonString(out[i]->name)
                  << ": {\"value\": " << jsonNumber(out[i]->value)
                  << ", \"unit\": " << jsonString(out[i]->unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
