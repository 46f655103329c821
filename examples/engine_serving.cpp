/**
 * @file
 * Serve a Poisson query stream through the *real* concurrent retrieval
 * engine using the request-centric API: an EngineBuilder composes the
 * engine, every query is a typed SearchRequest carrying its own
 * deadline and priority, and every outcome is a SearchResponse whose
 * Disposition says how the request left the engine (served, expired in
 * queue, or rejected by the bounded admission queue). The stream is
 * split across two tenants (interactive vs bulk), each registered as
 * a typed TenantClass — admission share, weighted-fair-batching
 * weight, SLO targets and degradation eligibility in one contract —
 * so the demo also prints the engine's per-tenant disposition, served
 * scanned-work and latency accounting — the executable counterpart of
 * the simulator-driven quickstart.
 *
 * Run: ./engine_serving [--smoke]
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "core/vectorliterag.h"

int
main(int argc, char **argv)
{
    using namespace vlr;

    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;

    std::cout << "VectorLiteRAG engine serving demo"
              << (smoke ? " (smoke mode)" : "") << "\n"
              << "=================================\n\n";

    // 1. Corpus + index: a real (reduced-scale) clustered dataset.
    wl::DatasetSpec spec = wl::tinySpec();
    spec.numVectors = smoke ? 8000 : 20000;
    spec.dim = 32;
    spec.numClusters = smoke ? 64 : 128;
    spec.nprobe = 16;
    wl::SyntheticDataset dataset(spec);
    dataset.buildVectors();
    const auto cq = dataset.makeCoarseQuantizer();
    vs::IvfPqFastScanIndex index(cq, spec.dim / 4);
    index.train(dataset.vectors(), spec.numVectors);
    index.addPreassigned(dataset.vectors(), spec.numVectors,
                         dataset.assignments());
    std::cout << "index: " << index.size() << " vectors, "
              << index.nlist() << " lists, "
              << vs::fastScanKernelName(vs::servingFastScanKernel())
              << " fast-scan\n";

    // 2. One fluent chain builds the engine: dispatcher policy,
    //    per-engine defaults, a bounded admission queue and one typed
    //    TenantClass per tenant — admission share, WFQ weight and
    //    degradation eligibility in a single contract; requests carry
    //    the typed id in SearchRequest::tenant. Fair service makes
    //    batch slots follow the weights (interactive gets 3x bulk's
    //    scanned-work share while both are backlogged). build()
    //    validates everything before the dispatcher thread starts.
    constexpr core::TenantId kInteractive{1}, kBulk{2};
    core::TenantPolicy tenants;
    tenants.enable = true;
    tenants.fairService = true;
    const auto engine =
        core::EngineBuilder(index)
            .defaultK(10)
            .defaultNprobe(spec.nprobe)
            .searchThreads(4)
            .batching({.maxBatch = 32, .timeoutSeconds = 2e-3})
            .admissionQueueBound(256)
            .tenantIsolation(tenants)
            .tenantClass({.id = kInteractive,
                          .name = "interactive",
                          .share = 0.6,
                          .weight = 3.0,
                          .degradable = false})
            .tenantClass({.id = kBulk,
                          .name = "bulk",
                          .share = 0.6,
                          .weight = 1.0})
            .build();

    // 3. Open-loop Poisson arrivals, replayed in real time. Every
    //    request carries its own deadline; a slice of the stream runs
    //    at a higher priority with a tighter deadline, standing in for
    //    latency-critical interactive traffic over bulk traffic.
    const double rate = smoke ? 1500.0 : 2000.0; // queries per second
    const double horizon = smoke ? 0.3 : 1.5;    // seconds
    const auto arrivals = wl::poissonArrivals(rate, horizon, 17);
    wl::QueryGenerator gen(dataset, 29);
    const auto queries = gen.generate(arrivals.size());

    std::cout << "replaying " << arrivals.size()
              << " Poisson arrivals at " << rate
              << " q/s (every 8th request: interactive tenant, "
                 "priority 1, 5 ms deadline;\nrest: bulk tenant, "
                 "50 ms)...\n\n";
    std::vector<std::future<core::SearchResponse>> futures;
    futures.reserve(arrivals.size());
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(arrivals[i]));
        std::this_thread::sleep_until(due);
        core::SearchRequest request;
        request.query = std::span<const float>(
            queries.data() + i * spec.dim, spec.dim);
        if (i % 8 == 0) {
            request.tenant = kInteractive;
            request.priority = 1;
            request.deadlineSeconds = 5e-3;
        } else {
            request.tenant = kBulk;
            request.deadlineSeconds = 50e-3;
        }
        futures.push_back(engine->submit(request));
    }
    engine->shutdown();

    // 4. Report: every request resolved with exactly one disposition.
    std::size_t served = 0, expired = 0, rejected = 0;
    for (auto &f : futures) {
        switch (f.get().disposition) {
        case core::Disposition::kServed:
            ++served;
            break;
        case core::Disposition::kExpiredInQueue:
            ++expired;
            break;
        case core::Disposition::kRejected:
            ++rejected;
            break;
        }
    }
    const auto stats = engine->stats();
    TextTable t({"metric", "mean (ms)", "p50 (ms)", "p90 (ms)",
                 "p99 (ms)"});
    const auto row = [&](const char *name, const LatencySummary &s) {
        t.addRow({name, TextTable::num(s.mean * 1e3, 3),
                  TextTable::num(s.p50 * 1e3, 3),
                  TextTable::num(s.p90 * 1e3, 3),
                  TextTable::num(s.p99 * 1e3, 3)});
    };
    row("queue wait (served)", stats.queueLatency);
    row("batch search", stats.searchLatency);
    row("total (served)", stats.totalLatency);
    row("queue wait (expired)", stats.expiredLatency);
    t.print(std::cout);

    std::cout << "\ndispositions: " << served << " served, " << expired
              << " expired in queue, " << rejected << " rejected of "
              << stats.submitted << " submitted ("
              << stats.batches << " batches, mean batch "
              << TextTable::num(stats.meanBatchSize, 1) << ")\n\n";

    // 5. Per-tenant accounting: the engine keeps exact disposition
    //    counts, served scanned-work and latency digests per tenant
    //    id; they sum to the global totals above, and the work split
    //    tracks the WFQ weights while both tenants stay backlogged.
    TextTable tt({"tenant", "weight", "submitted", "served", "expired",
                  "rejected", "work", "miss", "p99 total (ms)"});
    for (const auto &ts : stats.tenants)
        tt.addRow({ts.tenant == kInteractive ? "interactive" : "bulk",
                   TextTable::num(ts.weight, 1),
                   std::to_string(ts.submitted),
                   std::to_string(ts.served),
                   std::to_string(ts.expired),
                   std::to_string(ts.rejected),
                   std::to_string(ts.servedWork),
                   TextTable::pct(ts.missRate()),
                   TextTable::num(ts.totalLatency.p99 * 1e3, 3)});
    tt.print(std::cout);
    return served + expired + rejected == stats.submitted ? 0 : 1;
}
