/**
 * @file
 * Tiered-engine bench: hot-fraction and latency sweep of the live
 * hot/cold TieredIndex against the single-tier engine on the same
 * trained index and Zipf-skewed query stream. For each coverage rho the
 * bench reports engine throughput, search-latency percentiles, the
 * fraction of queries served entirely by the hot tier (cold tier
 * skipped via pruned routing), and the *measured* work-weighted hot hit
 * fraction next to the HitRateEstimator's calibration-time prediction —
 * the live analogue of the paper's Fig. 6 hit-rate model. A second
 * sweep scales the hot tier across shard counts and backends
 * (fast-scan view vs the throttled slow-device double), reporting
 * per-shard probe balance from the multi-shard router.
 *
 * Every tiered row doubles as a parity gate: each served query's hits
 * must equal the flat engine's hits for the same query, bit for bit.
 * The bench prints the match count per row and exits 1 on any
 * mismatch; timings gate nothing.
 *
 * Run: ./bench_tiered [num_queries] [--smoke]
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/tiered_index.h"
#include "workload/dataset.h"

int
main(int argc, char **argv)
{
    using namespace vlr;

    const auto args = bench::parseBenchArgs(argc, argv,
                                            /*default_queries=*/2000,
                                            /*smoke_queries=*/300);
    if (!args.ok) {
        std::cerr << "bench_tiered: " << args.error << "\n"
                  << "usage: bench_tiered [num_queries >= 1] "
                     "[--smoke]\n";
        return 1;
    }
    const std::size_t n_queries = args.numQueries;

    std::cout << "Tiered hot/cold engine bench"
              << (args.smoke ? " (smoke mode)" : "") << "\n"
              << "============================\n\n";

    // --- corpus + index (real vectors, Zipf-skewed query popularity) ---
    wl::DatasetSpec spec = wl::tinySpec();
    spec.numVectors = args.smoke ? 8000 : 40000;
    spec.dim = 64;
    spec.numClusters = args.smoke ? 64 : 256;
    spec.nprobe = 16;
    wl::SyntheticDataset dataset(spec);
    dataset.buildVectors();
    const auto cq = dataset.makeCoarseQuantizer();
    vs::IvfPqFastScanIndex index(cq, spec.dim / 4);
    index.train(dataset.vectors(), spec.numVectors);
    index.addPreassigned(dataset.vectors(), spec.numVectors,
                         dataset.assignments());
    std::cout << "index: " << index.size() << " vectors, dim "
              << index.dim() << ", nlist " << index.nlist() << ", simd "
              << (vs::fastScanHasSimd() ? "avx2" : "scalar")
              << ", query zipf " << spec.queryZipf << "\n\n";

    // --- calibration: profile access skew, fit the hit-rate model ---
    wl::QueryGenerator gen(dataset, 123);
    const std::size_t n_cal = args.smoke ? 400 : 1500;
    const auto cal_queries = gen.generate(n_cal);
    std::vector<double> work(spec.numClusters);
    for (std::size_t c = 0; c < spec.numClusters; ++c)
        work[c] = static_cast<double>(dataset.clusterSizes()[c]) *
                  spec.scaleFactor();
    const auto plans = wl::PlanSet::build(*cq, cal_queries, n_cal,
                                          spec.nprobe, work);
    const auto profile = core::AccessProfile::fromPlans(plans, dataset);
    const core::HitRateEstimator estimator(profile, plans);

    const auto queries = gen.generate(n_queries);
    const std::size_t k = 10;

    const auto make_builder = [&](core::EngineBuilder builder) {
        return builder.defaultK(k)
            .defaultNprobe(spec.nprobe)
            .searchThreads(4)
            .batching({.maxBatch = 32, .timeoutSeconds = 1e-3})
            .build();
    };

    // Wall seconds to serve the stream, and every response's hits.
    struct Run
    {
        double secs = 0.0;
        std::vector<std::vector<vs::SearchHit>> hits;
    };
    const auto run_engine = [&](core::RetrievalEngine &engine) {
        WallTimer wall;
        std::vector<std::future<core::SearchResponse>> futures;
        futures.reserve(n_queries);
        for (std::size_t i = 0; i < n_queries; ++i)
            futures.push_back(engine.submit(
                {.query = std::span<const float>(
                     queries.data() + i * spec.dim, spec.dim)}));
        engine.drain();
        Run run{wall.elapsed(), {}};
        run.hits.reserve(n_queries);
        for (auto &f : futures)
            run.hits.push_back(f.get().hits);
        return run;
    };

    // Parity gate: a tiered row's hits against the flat engine's.
    std::vector<std::vector<vs::SearchHit>> flat_hits;
    std::size_t mismatched_rows = 0;
    const auto check_parity = [&](const std::string &row,
                                  const Run &run) {
        std::size_t matched = 0;
        for (std::size_t i = 0; i < n_queries; ++i)
            if (run.hits[i] == flat_hits[i])
                ++matched;
        std::cout << "parity " << row << ": " << matched << "/"
                  << n_queries << " queries match flat\n";
        if (matched != n_queries)
            ++mismatched_rows;
    };

    TextTable t({"system", "hot", "hot MB", "QPS", "p50 srch (ms)",
                 "p99 srch (ms)", "hot-only", "hit meas", "hit pred"});

    struct RhoRow
    {
        double rho = 0.0;
        std::size_t numHot = 0;
        double hotBytes = 0.0;
        double qps = 0.0;
        double p50Search = 0.0;
        double p99Search = 0.0;
        double hotOnlyFraction = 0.0;
        double hitMeasured = 0.0;
        double hitPredicted = 0.0;
    };
    std::vector<RhoRow> rho_rows;
    struct ShardRow
    {
        std::string backend;
        std::size_t shards = 0;
        double qps = 0.0;
        double p50Search = 0.0;
        double p99Search = 0.0;
        double probeBalance = 0.0;
    };
    std::vector<ShardRow> shard_rows;
    double flat_qps = 0.0, flat_p50 = 0.0, flat_p99 = 0.0;

    // Single-tier baseline: the flat engine.
    {
        const auto engine = make_builder(core::EngineBuilder(index));
        Run run = run_engine(*engine);
        const double secs = run.secs;
        flat_hits = std::move(run.hits);
        const auto s = engine->stats();
        flat_qps = static_cast<double>(s.completed) / secs;
        flat_p50 = s.searchLatency.p50;
        flat_p99 = s.searchLatency.p99;
        t.addRow({"flat", "-", "-",
                  TextTable::num(static_cast<double>(s.completed) / secs,
                                 0),
                  TextTable::num(s.searchLatency.p50 * 1e3, 2),
                  TextTable::num(s.searchLatency.p99 * 1e3, 2), "-", "-",
                  "-"});
    }

    const std::vector<double> rhos =
        args.smoke ? std::vector<double>{0.0, 0.25, 1.0}
                   : std::vector<double>{0.0, 0.1, 0.25, 0.5, 0.75, 1.0};
    for (const double rho : rhos) {
        core::TieredIndex tiered(index, profile, rho);
        const auto engine = make_builder(core::EngineBuilder(tiered));
        const Run run = run_engine(*engine);
        const double secs = run.secs;
        check_parity("rho=" + TextTable::num(rho, 2), run);
        const auto s = engine->stats();
        const auto ts = tiered.stats();
        rho_rows.push_back(
            {rho, ts.numHot, static_cast<double>(ts.hotBytes),
             static_cast<double>(s.completed) / secs,
             s.searchLatency.p50, s.searchLatency.p99,
             ts.queries == 0
                 ? 0.0
                 : static_cast<double>(ts.hotOnlyQueries) /
                       static_cast<double>(ts.queries),
             ts.meanHitRate, estimator.meanHitRate(rho)});
        t.addRow({"rho=" + TextTable::num(rho, 2),
                  std::to_string(ts.numHot),
                  TextTable::num(static_cast<double>(ts.hotBytes) / 1e6,
                                 1),
                  TextTable::num(static_cast<double>(s.completed) / secs,
                                 0),
                  TextTable::num(s.searchLatency.p50 * 1e3, 2),
                  TextTable::num(s.searchLatency.p99 * 1e3, 2),
                  TextTable::pct(
                      ts.queries == 0
                          ? 0.0
                          : static_cast<double>(ts.hotOnlyQueries) /
                                static_cast<double>(ts.queries)),
                  TextTable::pct(ts.meanHitRate),
                  TextTable::pct(estimator.meanHitRate(rho))});
    }
    t.print(std::cout);

    std::cout
        << "\n'hot-only' is the fraction of queries whose probe list was "
           "fully\nhot-resident (cold tier skipped by the pruned "
           "router); 'hit meas' is the\nlive work-weighted hot hit rate "
           "and 'hit pred' the HitRateEstimator's\ncalibration-time "
           "prediction at the same coverage.\n\n";

    // --- multi-shard hot tier: shard count x backend sweep ------------
    std::cout << "Multi-shard hot tier at rho=0.25 "
              << "(one pool task per query)\n"
              << std::string(58, '-') << "\n";
    TextTable st({"backend", "shards", "QPS", "p50 srch (ms)",
                  "p99 srch (ms)", "probe balance", "scan us/shard"});
    struct BackendCase
    {
        const char *label;
        core::ShardBackendFactory factory;
    };
    const std::vector<BackendCase> backends = {
        {"fastscan", core::fastScanShardFactory()},
        // 50us per shard scan: a stand-in for a device with per-kernel
        // launch overhead inside each query's task.
        {"throttled 50us", core::throttledShardFactory(50e-6)},
    };
    const std::vector<std::size_t> shard_counts =
        args.smoke ? std::vector<std::size_t>{1, 2}
                   : std::vector<std::size_t>{1, 2, 4};
    for (const auto &bc : backends) {
        for (const std::size_t shards : shard_counts) {
            const auto engine =
                make_builder(core::EngineBuilder(index)
                                 .tieredFromProfile(profile, 0.25)
                                 .hotShards(shards)
                                 .shardBackend(bc.factory));
            const Run run = run_engine(*engine);
            const double secs = run.secs;
            check_parity(std::string(bc.label) + " x" +
                             std::to_string(shards),
                         run);
            const auto s = engine->stats();
            const auto ts = engine->tiered()->stats();
            // Balance: smallest / largest cumulative per-shard probe
            // count (1.0 = perfectly even routing).
            std::size_t mn = ts.shardProbeCounts.empty()
                                 ? 0
                                 : ts.shardProbeCounts[0];
            std::size_t mx = mn;
            for (const std::size_t p : ts.shardProbeCounts) {
                mn = std::min(mn, p);
                mx = std::max(mx, p);
            }
            // Mean bucket-scan wall time per shard (min-max across
            // shards): the signal a per-shard executor would balance.
            double scan_min = 0.0, scan_max = 0.0;
            bool have_scan = false;
            for (std::size_t sh = 0; sh < ts.shardScanCounts.size();
                 ++sh) {
                if (ts.shardScanCounts[sh] == 0)
                    continue;
                const double us =
                    ts.shardScanSeconds[sh] * 1e6 /
                    static_cast<double>(ts.shardScanCounts[sh]);
                scan_min = have_scan ? std::min(scan_min, us) : us;
                scan_max = have_scan ? std::max(scan_max, us) : us;
                have_scan = true;
            }
            shard_rows.push_back(
                {bc.label, shards,
                 static_cast<double>(s.completed) / secs,
                 s.searchLatency.p50, s.searchLatency.p99,
                 mx == 0 ? 0.0
                         : static_cast<double>(mn) /
                               static_cast<double>(mx)});
            st.addRow({bc.label, std::to_string(shards),
                       TextTable::num(
                           static_cast<double>(s.completed) / secs, 0),
                       TextTable::num(s.searchLatency.p50 * 1e3, 2),
                       TextTable::num(s.searchLatency.p99 * 1e3, 2),
                       mx == 0 ? "-"
                               : TextTable::num(
                                     static_cast<double>(mn) /
                                         static_cast<double>(mx),
                                     2),
                       have_scan ? TextTable::num(scan_min, 1) + "-" +
                                       TextTable::num(scan_max, 1)
                                 : "-"});
        }
    }
    st.print(std::cout);

    std::cout << "\n'probe balance' is min/max cumulative probes routed "
                 "per shard (1.0 =\nperfectly even); 'scan us/shard' is "
                 "the mean per-scan wall time of the\nfastest and "
                 "slowest shard (TieredStatsSnapshot shardScanSeconds /"
                 "\nshardScanCounts). The throttled backend adds a "
                 "per-scan launch delay; it\nstalls only the queries "
                 "holding probes on the shard, since each query\nis "
                 "one pool task and the other lanes keep serving.\n";

    // --- perf snapshot for CI trend archiving ---
    {
        std::ofstream os("BENCH_tiered.json");
        bench::JsonWriter w(os);
        w.beginObject();
        w.kv("bench", "tiered");
        w.kv("smoke", args.smoke);
        w.kv("numQueries", n_queries);
        w.kv("numVectors", spec.numVectors);
        w.kv("dim", spec.dim);
        w.kv("simd", vs::fastScanHasSimd());
        w.key("flat");
        w.beginObject();
        w.kv("qps", flat_qps);
        w.kv("p50SearchSeconds", flat_p50);
        w.kv("p99SearchSeconds", flat_p99);
        w.endObject();
        w.key("rhoSweep");
        w.beginArray();
        for (const RhoRow &r : rho_rows) {
            w.beginObject();
            w.kv("rho", r.rho);
            w.kv("numHot", r.numHot);
            w.kv("hotBytes", r.hotBytes);
            w.kv("qps", r.qps);
            w.kv("p50SearchSeconds", r.p50Search);
            w.kv("p99SearchSeconds", r.p99Search);
            w.kv("hotOnlyFraction", r.hotOnlyFraction);
            w.kv("hitRateMeasured", r.hitMeasured);
            w.kv("hitRatePredicted", r.hitPredicted);
            w.endObject();
        }
        w.endArray();
        w.key("shardSweep");
        w.beginArray();
        for (const ShardRow &r : shard_rows) {
            w.beginObject();
            w.kv("backend", r.backend);
            w.kv("shards", r.shards);
            w.kv("qps", r.qps);
            w.kv("p50SearchSeconds", r.p50Search);
            w.kv("p99SearchSeconds", r.p99Search);
            w.kv("probeBalance", r.probeBalance);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }
    std::cout << "\nwrote BENCH_tiered.json\n";
    if (mismatched_rows > 0) {
        std::cerr << "bench_tiered: " << mismatched_rows
                  << " tiered rows served hits that differ from flat\n";
        return 1;
    }
    return 0;
}
