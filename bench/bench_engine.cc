/**
 * @file
 * Throughput bench for the concurrent retrieval engine: real IVF-PQ
 * fast-scan searches through the admission queue + dynamic batcher,
 * swept over search-thread counts. Also fits a SearchPerfModel to
 * *measured* stage latencies and compares its prediction against the
 * engine's observed batch latency (the real-hardware analogue of the
 * Fig. 10 model validation).
 *
 * Run: ./bench_engine [num_queries] [--smoke]
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/perf_model.h"
#include "workload/dataset.h"

int
main(int argc, char **argv)
{
    using namespace vlr;

    // The perf-model profiling phase below reads up to 64 queries.
    const auto args = bench::parseBenchArgs(argc, argv,
                                            /*default_queries=*/2000,
                                            /*smoke_queries=*/256,
                                            /*min_queries=*/64);
    if (!args.ok) {
        std::cerr << "bench_engine: " << args.error << "\n"
                  << "usage: bench_engine [num_queries >= 64] "
                     "[--smoke]\n";
        return 1;
    }
    const std::size_t n_queries = args.numQueries;

    std::cout << "Concurrent retrieval engine bench"
              << (args.smoke ? " (smoke mode)" : "") << "\n"
              << "=================================\n\n";

    // --- corpus + index (real vectors, not the timing model) ---
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
              << index.dim() << ", nlist " << index.nlist()
              << ", fast-scan kernel "
              << vs::fastScanKernelName(vs::servingFastScanKernel()) << "\n";

    wl::QueryGenerator gen(dataset, 123);
    const auto queries = gen.generate(n_queries);
    const std::size_t k = 10;

    // --- fit a perf model to measured serial stage latencies ---
    std::vector<PlKnot> cq_knots, lut_knots;
    for (const std::size_t b : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul, 64ul}) {
        vs::SearchBreakdown bd;
        index.searchBatch(std::span<const float>(queries.data(),
                                                 b * spec.dim),
                          b, k, spec.nprobe, &bd);
        cq_knots.push_back({static_cast<double>(b), bd.cqSeconds});
        lut_knots.push_back({static_cast<double>(b),
                             bd.lutBuildSeconds + bd.scanSeconds});
    }
    const auto model = core::SearchPerfModel::fromKnots(cq_knots,
                                                        lut_knots);

    // --- closed-loop engine sweep over search-thread counts ---
    TextTable t({"threads", "wall (s)", "QPS", "speedup", "mean batch",
                 "p50 search (ms)", "p99 search (ms)", "model (ms)"});
    struct SweepRow
    {
        std::size_t threads = 0;
        double wallSeconds = 0.0;
        double qps = 0.0;
        double meanBatch = 0.0;
        double p50Search = 0.0;
        double p99Search = 0.0;
        double modelSeconds = 0.0;
    };
    std::vector<SweepRow> rows;
    double qps1 = 0.0;
    const std::vector<std::size_t> thread_counts =
        args.smoke ? std::vector<std::size_t>{1, 4}
                   : std::vector<std::size_t>{1, 2, 4, 8};
    for (const std::size_t threads : thread_counts) {
        const auto engine =
            core::EngineBuilder(index)
                .defaultK(k)
                .defaultNprobe(spec.nprobe)
                .searchThreads(threads)
                .batching({.maxBatch = 32, .timeoutSeconds = 1e-3})
                .build();

        WallTimer wall;
        std::vector<std::future<core::SearchResponse>> futures;
        futures.reserve(n_queries);
        for (std::size_t i = 0; i < n_queries; ++i)
            futures.push_back(engine->submit(
                {.query = std::span<const float>(
                     queries.data() + i * spec.dim, spec.dim)}));
        engine->drain();
        const double secs = wall.elapsed();
        for (auto &f : futures)
            f.get();

        const auto s = engine->stats();
        const double qps = static_cast<double>(s.completed) / secs;
        if (threads == 1)
            qps1 = qps;
        // The fitted model predicts the *serial* batch latency at the
        // observed mean batch size; the measured columns show how the
        // parallel executor beats it.
        const double predicted = model.tSearch(s.meanBatchSize);
        rows.push_back({threads, secs, qps, s.meanBatchSize,
                        s.searchLatency.p50, s.searchLatency.p99,
                        predicted});
        t.addRow({std::to_string(threads), TextTable::num(secs, 2),
                  TextTable::num(qps, 0),
                  TextTable::num(qps / qps1, 2) + "x",
                  TextTable::num(s.meanBatchSize, 1),
                  TextTable::num(s.searchLatency.p50 * 1e3, 2),
                  TextTable::num(s.searchLatency.p99 * 1e3, 2),
                  TextTable::num(predicted * 1e3, 2)});
    }
    t.print(std::cout);

    std::cout << "\nSpeedup is relative to 1 search thread; 'model' is "
                 "the measured-knot\nSearchPerfModel prediction of "
                 "serial latency at the mean batch size.\n";

    // --- perf snapshot for CI trend archiving ---
    {
        std::ofstream os("BENCH_engine.json");
        bench::JsonWriter w(os);
        w.beginObject();
        w.kv("bench", "engine");
        w.kv("smoke", args.smoke);
        w.kv("numQueries", n_queries);
        w.kv("numVectors", spec.numVectors);
        w.kv("dim", spec.dim);
        w.kv("kernel", vs::fastScanKernelName(vs::servingFastScanKernel()));
        w.key("threadSweep");
        w.beginArray();
        for (const SweepRow &r : rows) {
            w.beginObject();
            w.kv("threads", r.threads);
            w.kv("wallSeconds", r.wallSeconds);
            w.kv("qps", r.qps);
            w.kv("speedup", qps1 > 0.0 ? r.qps / qps1 : 0.0);
            w.kv("meanBatch", r.meanBatch);
            w.kv("p50SearchSeconds", r.p50Search);
            w.kv("p99SearchSeconds", r.p99Search);
            w.kv("modelSeconds", r.modelSeconds);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }
    std::cout << "\nwrote BENCH_engine.json\n";
    return 0;
}
