/**
 * @file
 * Persistence bench: artifact cold start vs in-memory retraining.
 *
 * Times the three storage phases — IndexStore::save of a trained
 * index, EngineBuilder::fromArtifact cold start (load + engine build),
 * and the first served query — against the in-memory rebuild (train +
 * encode) the artifact replaces. The bench *enforces* the headline
 * claim by exit code: a non-zero status when the artifact cold start
 * fails to beat retraining, or when either parity check (fromArtifact
 * engine vs the in-memory index, MmapColdTier vs the in-memory cold
 * scan) is not bit-identical.
 *
 * With --artifact-dir DIR the trained artifact and a sidecar meta file
 * (recorded train/save times + shape) persist across runs: a rerun
 * that finds a matching cached artifact skips training and gates the
 * cold start against the *recorded* train time — the CI cache path.
 *
 * Run: ./bench_persist [num_queries] [--smoke] [--artifact-dir DIR]
 * Emits BENCH_persist.json for CI trend archiving.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "storage/index_store.h"
#include "storage/mmap_cold_tier.h"
#include "workload/dataset.h"

namespace
{

struct Args
{
    std::size_t numQueries = 0;
    bool smoke = false;
    std::string artifactDir;
    bool ok = true;
    std::string error;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool queries_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            a.smoke = true;
        } else if (arg == "--artifact-dir") {
            if (i + 1 >= argc) {
                a.ok = false;
                a.error = "--artifact-dir needs a directory argument";
                return a;
            }
            a.artifactDir = argv[++i];
        } else if (!queries_set && !arg.empty() && arg[0] != '-') {
            try {
                a.numQueries = std::stoul(arg);
            } catch (const std::exception &) {
                a.ok = false;
                a.error = "bad query count '" + arg + "'";
                return a;
            }
            if (a.numQueries < 1) {
                a.ok = false;
                a.error = "query count must be >= 1";
                return a;
            }
            queries_set = true;
        } else {
            a.ok = false;
            a.error = "unknown argument '" + arg + "'";
            return a;
        }
    }
    if (!queries_set)
        a.numQueries = a.smoke ? 200 : 1000;
    return a;
}

/** Sidecar key=value metadata recorded next to a cached artifact. */
std::map<std::string, std::string>
readMeta(const std::string &path)
{
    std::map<std::string, std::string> kv;
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        const auto eq = line.find('=');
        if (eq != std::string::npos)
            kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    return kv;
}

bool
sameHits(const std::vector<vlr::vs::SearchHit> &a,
         const std::vector<vlr::vs::SearchHit> &b)
{
    return a == b;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vlr;

    const Args args = parseArgs(argc, argv);
    if (!args.ok) {
        std::cerr << "bench_persist: " << args.error << "\n"
                  << "usage: bench_persist [num_queries >= 1] [--smoke] "
                     "[--artifact-dir DIR]\n";
        return 1;
    }
    const std::size_t n_queries = args.numQueries;

    std::cout << "Persistent index store bench"
              << (args.smoke ? " (smoke mode)" : "") << "\n"
              << "============================\n\n";

    // --- corpus (deterministic, so a cached artifact stays valid) ---
    wl::DatasetSpec spec = wl::tinySpec();
    spec.numVectors = args.smoke ? 8000 : 40000;
    spec.dim = 64;
    spec.numClusters = args.smoke ? 64 : 256;
    spec.nprobe = 16;
    wl::SyntheticDataset dataset(spec);
    dataset.buildVectors();
    const auto cq = dataset.makeCoarseQuantizer();
    const std::size_t m = spec.dim / 4;
    const std::size_t k = 10;

    std::string artifact_path = "bench_persist.vlra";
    std::string meta_path;
    if (!args.artifactDir.empty()) {
        std::filesystem::create_directories(args.artifactDir);
        artifact_path = args.artifactDir + "/bench_persist.vlra";
        meta_path = artifact_path + ".meta";
    }

    // --- phase 1: train + save, or reuse a cached artifact ---
    double train_seconds = 0.0;
    double save_seconds = 0.0;
    bool cached = false;
    if (!meta_path.empty() && std::filesystem::exists(artifact_path) &&
        std::filesystem::exists(meta_path)) {
        try {
            const auto info = storage::IndexStore::inspect(artifact_path);
            const auto meta = readMeta(meta_path);
            if (info.dim == spec.dim && info.m == m &&
                info.nlist == spec.numClusters &&
                info.total == spec.numVectors &&
                meta.count("trainSeconds") != 0 &&
                meta.count("saveSeconds") != 0) {
                train_seconds = std::stod(meta.at("trainSeconds"));
                save_seconds = std::stod(meta.at("saveSeconds"));
                cached = true;
            }
        } catch (const std::exception &e) {
            std::cout << "cached artifact rejected (" << e.what()
                      << "); retraining\n";
        }
    }

    // The in-memory baseline every parity check compares against: the
    // freshly trained index, or (cached path) the loaded artifact —
    // whose fidelity the test suite pins down bit-for-bit.
    auto baseline = [&]() -> vs::IvfPqFastScanIndex {
        if (cached) {
            std::cout << "reusing cached artifact " << artifact_path
                      << " (recorded train "
                      << TextTable::num(train_seconds, 2)
                      << " s)\n\n";
            return storage::IndexStore::load(artifact_path);
        }
        WallTimer t;
        vs::IvfPqFastScanIndex idx(cq, m);
        idx.train(dataset.vectors(), spec.numVectors);
        idx.addPreassigned(dataset.vectors(), spec.numVectors,
                           dataset.assignments());
        train_seconds = t.elapsed();
        t.reset();
        storage::IndexStore::save(artifact_path, idx);
        save_seconds = t.elapsed();
        if (!meta_path.empty()) {
            std::ofstream os(meta_path, std::ios::trunc);
            os << "formatVersion="
               << storage::IndexStore::kFormatVersion << "\n"
               << "trainSeconds=" << train_seconds << "\n"
               << "saveSeconds=" << save_seconds << "\n";
        }
        return idx;
    }();

    std::cout << "index: " << baseline.size() << " vectors, dim "
              << baseline.dim() << ", nlist " << baseline.nlist()
              << ", fast-scan kernel "
              << vs::fastScanKernelName(vs::servingFastScanKernel())
              << "\nartifact: " << artifact_path << " ("
              << std::filesystem::file_size(artifact_path)
              << " bytes)\n\n";

    // --- phase 2: cold start from the artifact ---
    WallTimer cold_timer;
    auto engine = core::EngineBuilder::fromArtifact(artifact_path)
                      .defaultK(k)
                      .defaultNprobe(spec.nprobe)
                      .searchThreads(2)
                      .batching({.maxBatch = 32, .timeoutSeconds = 1e-3})
                      .build();
    const double cold_start_seconds = cold_timer.elapsed();

    wl::QueryGenerator gen(dataset, 123);
    const auto queries = gen.generate(n_queries);

    cold_timer.reset();
    auto first = engine
                     ->submit({.query = std::span<const float>(
                                   queries.data(), spec.dim)})
                     .get();
    const double first_query_seconds = cold_timer.elapsed();

    // --- phase 3: parity (the gate, not just a report) ---
    bool engine_parity =
        first.disposition == core::Disposition::kServed &&
        sameHits(first.hits,
                 baseline.search(queries.data(), k, spec.nprobe));
    {
        std::vector<std::future<core::SearchResponse>> futures;
        futures.reserve(n_queries);
        for (std::size_t i = 0; i < n_queries; ++i)
            futures.push_back(engine->submit(
                {.query = std::span<const float>(
                     queries.data() + i * spec.dim, spec.dim)}));
        for (std::size_t i = 0; i < n_queries; ++i) {
            const auto resp = futures[i].get();
            if (resp.disposition != core::Disposition::kServed ||
                !sameHits(resp.hits,
                          baseline.search(queries.data() + i * spec.dim,
                                          k, spec.nprobe)))
                engine_parity = false;
        }
    }

    bool mmap_parity = true;
    std::size_t resident_bytes = 0;
    std::size_t resident_clusters = 0;
    {
        storage::MmapColdTier tier(artifact_path, {});
        vs::SearchScratch scratch;
        const std::size_t nlist = baseline.nlist();
        std::vector<cluster_id_t> probe;
        const std::size_t n_parity = std::min<std::size_t>(64, n_queries);
        for (std::size_t i = 0; i < n_parity; ++i) {
            // Deterministic striped cluster subsets stand in for router
            // probe sets; parity must hold for *any* subset.
            probe.clear();
            for (std::size_t c = i % 4; c < nlist; c += 4)
                probe.push_back(static_cast<cluster_id_t>(c));
            const float *q = queries.data() + i * spec.dim;
            if (!sameHits(tier.searchClusters(q, k, probe, &scratch),
                          baseline.searchClusters(q, k, probe, nullptr,
                                                  &scratch)))
                mmap_parity = false;
        }
        resident_bytes = tier.residentBytes();
        resident_clusters = tier.residentClusters();
    }

    const double speedup =
        cold_start_seconds > 0.0 ? train_seconds / cold_start_seconds
                                 : 0.0;
    const bool beats_retrain = cold_start_seconds < train_seconds;

    TextTable t({"phase", "seconds"});
    t.addRow({"train + encode (in-memory rebuild)",
              TextTable::num(train_seconds, 4)});
    t.addRow({"IndexStore::save", TextTable::num(save_seconds, 4)});
    t.addRow({"fromArtifact cold start",
              TextTable::num(cold_start_seconds, 4)});
    t.addRow({"first served query",
              TextTable::num(first_query_seconds, 4)});
    t.print(std::cout);
    std::cout << "\ncold start vs retrain: "
              << TextTable::num(speedup, 1) << "x "
              << (beats_retrain ? "(beats retraining)"
                                : "(FAILS to beat retraining)")
              << "\nengine parity: " << (engine_parity ? "ok" : "FAIL")
              << "   mmap cold-tier parity: "
              << (mmap_parity ? "ok" : "FAIL") << "\nmmap residency: "
              << resident_clusters << " clusters, " << resident_bytes
              << " bytes\n";

    {
        std::ofstream os("BENCH_persist.json");
        bench::JsonWriter w(os);
        w.beginObject();
        w.kv("bench", "persist");
        w.kv("smoke", args.smoke);
        w.kv("numQueries", n_queries);
        w.kv("numVectors", spec.numVectors);
        w.kv("dim", spec.dim);
        w.kv("nlist", spec.numClusters);
        w.kv("kernel", vs::fastScanKernelName(vs::servingFastScanKernel()));
        w.kv("cachedArtifact", cached);
        w.kv("artifactBytes",
             static_cast<std::size_t>(
                 std::filesystem::file_size(artifact_path)));
        w.kv("trainSeconds", train_seconds);
        w.kv("saveSeconds", save_seconds);
        w.kv("coldStartSeconds", cold_start_seconds);
        w.kv("firstQuerySeconds", first_query_seconds);
        w.kv("coldStartSpeedup", speedup);
        w.kv("beatsRetrain", beats_retrain);
        w.kv("engineParity", engine_parity);
        w.kv("mmapParity", mmap_parity);
        w.kv("mmapResidentBytes", resident_bytes);
        w.kv("mmapResidentClusters", resident_clusters);
        w.endObject();
        os << "\n";
    }
    std::cout << "\nwrote BENCH_persist.json\n";

    if (meta_path.empty())
        std::remove(artifact_path.c_str());

    if (!engine_parity || !mmap_parity) {
        std::cerr << "bench_persist: parity FAILED\n";
        return 1;
    }
    if (!beats_retrain) {
        std::cerr << "bench_persist: artifact cold start did not beat "
                     "retraining\n";
        return 1;
    }
    return 0;
}
