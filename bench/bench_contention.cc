/**
 * @file
 * Reader-scaling contention bench: does search throughput scale with
 * reader threads now that the read path takes no locks?
 *
 * Sweeps concurrent reader threads from 1 to the hardware concurrency,
 * each thread running serial searches with private scratch. Two
 * systems per point:
 *
 *  - flat: the bare IvfPqFastScanIndex (no epoch machinery, no stat
 *    shards) — the scaling ceiling of the underlying scan kernels;
 *  - tiered: TieredIndex under *churn* — a control thread continuously
 *    repartitions (snapshot swap + epoch retirement of the displaced
 *    generation) and drains access counts while the readers run, the
 *    adversarial schedule for the lock-free read path.
 *
 * The gate: tiered search throughput at N readers must be at least
 * 0.7 * N * single-reader tiered throughput for every gated N. A
 * mutex-pinned snapshot or CAS-looped stat counter serializes readers
 * and fails this immediately at small N; the epoch-guarded read path
 * with per-thread stat shards passes. Exit code 1 on gate failure, so
 * CI catches read-path contention regressions.
 *
 * The churn thread needs a core of its own: at N = hardware threads
 * the readers share cores with it, and scaling then measures the
 * scheduler rather than the read path. Reader counts are therefore
 * gated only up to max(1, hw - 1); the full-machine row is printed but
 * not gated. Each timed run is num_queries_per_reader queries per
 * reader (smoke: 5000). Timing goes in rounds: each round times every
 * reader count once, flat then tiered, and each point is the best of
 * five rounds. On a shared or virtualized host a slow minute (steal,
 * vCPU wake-up, single-core turbo) then slows every reader count
 * alike instead of the few runs of one count, and that noise only
 * ever slows a run down.
 *
 * Writes BENCH_contention.json next to the binary for trend archiving.
 *
 * Run: ./bench_contention [num_queries_per_reader] [--smoke]
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "core/access_profile.h"
#include "core/tiered_index.h"
#include "workload/dataset.h"

namespace
{

/** Timing rounds; each point reports its fastest round. */
constexpr int kRounds = 5;

/**
 * Run @p readers threads, each calling @p searchOne(reader, i) for i
 * in [0, queries_per_reader), and return aggregate queries/second of
 * the run. The clock starts only once every reader is spinning on the
 * start flag, so the window covers concurrent execution only, not
 * thread start-up.
 */
template <typename SearchOne>
double
runReaders(std::size_t readers, std::size_t queries_per_reader,
           const SearchOne &searchOne)
{
    std::atomic<bool> start{false};
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (std::size_t r = 0; r < readers; ++r)
        threads.emplace_back([&, r] {
            ready.fetch_add(1, std::memory_order_release);
            while (!start.load(std::memory_order_acquire)) {
            }
            for (std::size_t i = 0; i < queries_per_reader; ++i)
                searchOne(r, i);
        });
    while (ready.load(std::memory_order_acquire) < readers)
        std::this_thread::yield();
    vlr::WallTimer wall;
    start.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    return static_cast<double>(readers * queries_per_reader) /
           wall.elapsed();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vlr;

    const auto args = bench::parseBenchArgs(argc, argv,
                                            /*default_queries=*/2000,
                                            /*smoke_queries=*/5000);
    if (!args.ok) {
        std::cerr << "bench_contention: " << args.error << "\n"
                  << "usage: bench_contention "
                     "[num_queries_per_reader >= 1] [--smoke]\n";
        return 1;
    }
    const std::size_t queries_per_reader = args.numQueries;
    const std::size_t hw = ThreadPool::hardwareConcurrency();

    std::cout << "Reader-scaling contention bench"
              << (args.smoke ? " (smoke mode)" : "") << "\n"
              << "===============================\n\n";

    // --- corpus + index ----------------------------------------------
    wl::DatasetSpec spec = wl::tinySpec();
    spec.numVectors = args.smoke ? 8000 : 20000;
    spec.dim = 64;
    spec.numClusters = args.smoke ? 64 : 128;
    spec.nprobe = 8;
    wl::SyntheticDataset dataset(spec);
    dataset.buildVectors();
    const auto cq = dataset.makeCoarseQuantizer();
    vs::IvfPqFastScanIndex index(cq, spec.dim / 4);
    index.train(dataset.vectors(), spec.numVectors);
    index.addPreassigned(dataset.vectors(), spec.numVectors,
                         dataset.assignments());
    std::cout << "index: " << index.size() << " vectors, nlist "
              << index.nlist() << ", hardware threads " << hw << "\n\n";

    // --- access profile for the tiered build -------------------------
    wl::QueryGenerator gen(dataset, 123);
    const std::size_t n_cal = args.smoke ? 300 : 1000;
    const auto cal_queries = gen.generate(n_cal);
    std::vector<double> work(spec.numClusters);
    for (std::size_t c = 0; c < spec.numClusters; ++c)
        work[c] = static_cast<double>(dataset.clusterSizes()[c]) *
                  spec.scaleFactor();
    const auto plans = wl::PlanSet::build(*cq, cal_queries, n_cal,
                                          spec.nprobe, work);
    const auto profile = core::AccessProfile::fromPlans(plans, dataset);

    const double rho = 0.25;
    core::TieredIndex tiered(index, profile, rho);

    // Private query stream per reader so threads never share buffers.
    const std::size_t max_readers = hw;
    const auto queries =
        gen.generate(max_readers * queries_per_reader);
    const std::size_t k = 10;
    const auto query_at = [&](std::size_t reader, std::size_t i) {
        return queries.data() +
               (reader * queries_per_reader + i) * spec.dim;
    };

    // Reader counts: 1, 2, 4, ... up to the gated maximum (one core
    // left for the churn thread), then the full machine ungated.
    const std::size_t max_gated = std::max<std::size_t>(1, hw - 1);
    std::vector<std::size_t> reader_counts;
    for (std::size_t n = 1; n < max_gated; n *= 2)
        reader_counts.push_back(n);
    reader_counts.push_back(max_gated);
    if (hw > max_gated)
        reader_counts.push_back(hw);

    struct Row
    {
        std::size_t readers = 0;
        double flatQps = 0.0;
        double tieredQps = 0.0;
        double scaling = 0.0;   // tieredQps / (N * tieredQps@1)
        std::size_t churns = 0; // repartitions completed in the windows
        bool gated = false;
        bool pass = false;
    };
    const double min_scaling = 0.7;
    bool gate_ok = true;

    TextTable t({"readers", "flat QPS", "tiered QPS", "scaling",
                 "churns", "gate"});
    const auto hot_a = profile.hotClusters(rho);
    const auto hot_b = profile.hotClusters(rho / 2.0);

    std::vector<Row> rows(reader_counts.size());
    for (int round = 0; round < kRounds; ++round) {
        for (std::size_t ri = 0; ri < reader_counts.size(); ++ri) {
            const std::size_t n = reader_counts[ri];
            Row &row = rows[ri];
            row.readers = n;

            // Flat baseline: per-thread scratch, no shared mutable
            // state.
            std::vector<vs::SearchScratch> flat_scratch(n);
            row.flatQps = std::max(
                row.flatQps,
                runReaders(n, queries_per_reader,
                           [&](std::size_t r, std::size_t i) {
                               index.search(query_at(r, i), k, spec.nprobe,
                                            nullptr, &flat_scratch[r]);
                           }));

            // Tiered under churn: repartition + drain continuously
            // while the readers run.
            std::atomic<bool> stop_churn{false};
            std::atomic<std::size_t> churns{0};
            std::thread churn([&] {
                bool flip = false;
                while (!stop_churn.load(std::memory_order_acquire)) {
                    tiered.repartition(flip ? hot_b : hot_a);
                    flip = !flip;
                    tiered.drainAccessCounts();
                    churns.fetch_add(1, std::memory_order_relaxed);
                }
            });
            std::vector<vs::SearchScratch> tiered_scratch(n);
            row.tieredQps = std::max(
                row.tieredQps,
                runReaders(n, queries_per_reader,
                           [&](std::size_t r, std::size_t i) {
                               tiered.search(query_at(r, i), k,
                                             spec.nprobe,
                                             &tiered_scratch[r]);
                           }));
            stop_churn.store(true, std::memory_order_release);
            churn.join();
            row.churns += churns.load();
        }
    }

    const double tiered_qps_1 = rows.front().tieredQps;
    for (Row &row : rows) {
        row.scaling = row.tieredQps /
                      (static_cast<double>(row.readers) * tiered_qps_1);
        row.gated = row.readers <= max_gated;
        row.pass = row.scaling >= min_scaling;
        if (row.gated)
            gate_ok = gate_ok && row.pass;
        t.addRow({std::to_string(row.readers),
                  TextTable::num(row.flatQps, 0),
                  TextTable::num(row.tieredQps, 0),
                  TextTable::num(row.scaling, 2),
                  std::to_string(row.churns),
                  !row.gated ? "-" : row.pass ? "ok" : "FAIL"});
    }
    t.print(std::cout);

    std::cout << "\n'scaling' is tiered QPS at N readers / (N x tiered "
                 "QPS at 1 reader),\nmeasured while a control thread "
                 "continuously repartitions (snapshot\nswap + epoch "
                 "retirement) and drains access counts; 'churns' counts "
                 "the\nrepartition+drain cycles completed inside the "
                 "measurement windows. Each QPS\nis the best of "
              << kRounds
              << " timing rounds, each of which times every reader count"
                 ".\nThe gate requires scaling >= "
              << TextTable::num(min_scaling, 2)
              << "\nat every reader count up to " << max_gated
              << " (one core left for the churn thread); the\n"
                 "full-machine row is shown ungated ('-').\n";

    // --- perf snapshot for CI trend archiving ------------------------
    {
        std::ofstream os("BENCH_contention.json");
        bench::JsonWriter w(os);
        w.beginObject();
        w.kv("bench", "contention");
        w.kv("smoke", args.smoke);
        w.kv("queriesPerReader", queries_per_reader);
        w.kv("hardwareThreads", hw);
        w.kv("numVectors", spec.numVectors);
        w.kv("rho", rho);
        w.kv("minScaling", min_scaling);
        w.kv("gatePassed", gate_ok);
        w.key("sweep");
        w.beginArray();
        for (const Row &r : rows) {
            w.beginObject();
            w.kv("readers", r.readers);
            w.kv("flatQps", r.flatQps);
            w.kv("tieredQps", r.tieredQps);
            w.kv("scaling", r.scaling);
            w.kv("churns", r.churns);
            w.kv("gated", r.gated);
            w.kv("pass", r.pass);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }
    std::cout << "\nwrote BENCH_contention.json\n";

    if (!gate_ok) {
        std::cerr << "bench_contention: scaling gate FAILED (tiered "
                     "read path is serializing readers)\n";
        return 1;
    }
    return 0;
}
