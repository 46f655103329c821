/**
 * @file
 * Repartition-under-load bench (paper Fig. 9 + the Figs. 11/16
 * SLO-attainment story run live). A Zipf query stream drifts mid-run
 * while the tiered engine keeps serving deadlined requests; two
 * configurations face the same streams:
 *
 *  - static    keeps the calibration-time hot set and batch cap;
 *  - autopilot runs the full closed loop (SloAutopilot): per-batch
 *              perf-model refits, live access profiling, partitioner
 *              re-picks of rho / shard count / batch cap (rebuilding
 *              the hot tier through a snapshot swap), plus graceful
 *              nprobe degradation under backlog pressure.
 *
 * Every request carries a queueing deadline, so the per-disposition
 * stats expose the SLO story directly: the autopilot should show an
 * expired+rejected rate no worse than the static baseline under
 * drift. Results land in BENCH_repartition.json (per-phase percentiles
 * and dispositions for both configs) and BENCH_autopilot.json
 * (decision trace: chosen rho / shards / batch cap over time).
 *
 * Run: ./bench_repartition [num_queries] [--smoke]
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "core/engine_builder.h"
#include "core/engine_runtime.h"
#include "core/slo_autopilot.h"
#include "core/tiered_index.h"
#include "workload/dataset.h"

namespace
{

using namespace vlr;

/** Latency digest + routing + disposition deltas of one phase. */
struct PhaseResult
{
    std::string name;
    LatencySummary search;
    double hotProbeFraction = 0.0;
    /** Mean work-weighted hit rate over the phase's queries. */
    double meanHitRate = 0.0;
    std::size_t served = 0;
    std::size_t expired = 0;
    std::size_t rejected = 0;
    std::size_t degraded = 0;

    double
    missRate() const
    {
        const std::size_t resolved = served + expired + rejected;
        return resolved == 0
                   ? 0.0
                   : static_cast<double>(expired + rejected) /
                         static_cast<double>(resolved);
    }
};

/**
 * Burst-submit one phase of deadlined requests and drain. The burst
 * (rather than paced arrivals) guarantees a standing backlog, so the
 * deadline sweep, the EDF ordering and — when enabled — nprobe
 * degradation all face real queue pressure.
 */
PhaseResult
servePhase(const char *name, core::RetrievalEngine &engine,
           const core::TieredIndex &tiered,
           std::span<const float> queries, std::size_t n,
           std::size_t dim, double deadline_s)
{
    const auto before_t = tiered.stats();
    const auto before_e = engine.stats();

    std::vector<core::SearchRequest> requests(n);
    for (std::size_t i = 0; i < n; ++i) {
        requests[i].query =
            std::span<const float>(queries.data() + i * dim, dim);
        requests[i].deadlineSeconds = deadline_s;
        requests[i].tag = i;
    }
    auto futures = engine.submitMany(requests);
    engine.drain();

    SampleSet samples;
    for (auto &f : futures) {
        const auto r = f.get();
        if (r.served())
            samples.add(r.searchSeconds);
    }
    const auto after_t = tiered.stats();
    const auto after_e = engine.stats();

    PhaseResult r;
    r.name = name;
    r.search = summarizeLatency(samples);
    const auto probes = after_t.totalProbes - before_t.totalProbes;
    r.hotProbeFraction =
        probes == 0 ? 0.0
                    : static_cast<double>(after_t.hotProbes -
                                          before_t.hotProbes) /
                          static_cast<double>(probes);
    const auto queries_served = after_t.queries - before_t.queries;
    if (queries_served > 0)
        r.meanHitRate = std::max(
            0.0, (after_t.meanHitRate *
                      static_cast<double>(after_t.queries) -
                  before_t.meanHitRate *
                      static_cast<double>(before_t.queries)) /
                     static_cast<double>(queries_served));
    r.served = after_e.served - before_e.served;
    r.expired = after_e.expired - before_e.expired;
    r.rejected = after_e.rejected - before_e.rejected;
    r.degraded = after_e.degradedServed - before_e.degradedServed;
    return r;
}

/** Aggregate (expired + rejected) / resolved over a config's phases. */
double
configMissRate(const std::vector<PhaseResult> &phases)
{
    std::size_t missed = 0, resolved = 0;
    for (const PhaseResult &p : phases) {
        missed += p.expired + p.rejected;
        resolved += p.served + p.expired + p.rejected;
    }
    return resolved == 0 ? 0.0
                         : static_cast<double>(missed) /
                               static_cast<double>(resolved);
}

void
writePhaseJson(bench::JsonWriter &w, const PhaseResult &p)
{
    w.beginObject();
    w.kv("name", p.name);
    w.kv("p50SearchSeconds", p.search.p50);
    w.kv("p99SearchSeconds", p.search.p99);
    w.kv("meanHitRate", p.meanHitRate);
    w.kv("hotProbeFraction", p.hotProbeFraction);
    w.kv("served", p.served);
    w.kv("expired", p.expired);
    w.kv("rejected", p.rejected);
    w.kv("degradedServed", p.degraded);
    w.kv("missRate", p.missRate());
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vlr;

    const auto args = bench::parseBenchArgs(argc, argv,
                                            /*default_queries=*/4000,
                                            /*smoke_queries=*/600,
                                            /*min_queries=*/2);
    if (!args.ok) {
        std::cerr << "bench_repartition: " << args.error << "\n"
                  << "usage: bench_repartition [num_queries >= 2] "
                     "[--smoke]\n";
        return 1;
    }
    const std::size_t n_phase = args.numQueries / 2;
    // Tight enough that a standing burst backlog expires its tail on
    // the static config at this scale; the autopilot must earn its
    // keep against the same deadline.
    const double deadline_s = args.smoke ? 0.010 : 0.025;

    std::cout << "Repartition-under-load bench"
              << (args.smoke ? " (smoke mode)" : "") << "\n"
              << "============================\n\n";

    // --- corpus + index ------------------------------------------------
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

    const double rho = 0.25;
    const std::size_t num_shards = 2;
    std::cout << "index: " << index.size() << " vectors, nlist "
              << index.nlist() << "; hot tier rho=" << rho << " across "
              << num_shards << " shards; deadline "
              << deadline_s * 1e3 << " ms; drift after " << n_phase
              << " queries\n\n";

    TextTable t({"config", "phase", "p50 srch (ms)", "p99 srch (ms)",
                 "mean hit", "hot probes", "expired", "degraded",
                 "rebuilds"});

    const std::vector<std::string> modes = {"static", "autopilot"};
    std::vector<std::vector<PhaseResult>> all_phases(modes.size());
    core::EngineStatsSnapshot autopilot_stats;

    for (std::size_t m = 0; m < modes.size(); ++m) {
        const std::string &mode = modes[m];
        const bool autopilot = mode == "autopilot";

        // Identical streams per config: same calibration + drift seeds.
        wl::QueryGenerator gen(dataset, 123);
        const std::size_t n_cal = args.smoke ? 400 : 1500;
        const auto cal = gen.generate(n_cal);
        std::vector<double> work(spec.numClusters);
        for (std::size_t c = 0; c < spec.numClusters; ++c)
            work[c] = static_cast<double>(dataset.clusterSizes()[c]) *
                      spec.scaleFactor();
        const auto plans =
            wl::PlanSet::build(*cq, cal, n_cal, spec.nprobe, work);
        const auto profile =
            core::AccessProfile::fromPlans(plans, dataset);

        core::TieredOptions topts;
        topts.numShards = num_shards;
        // Headroom for the autopilot's shard-count actuation.
        topts.maxShards = autopilot ? 4 : num_shards;
        core::TieredIndex tiered(index, profile, rho, topts);

        core::EngineBuilder builder(tiered);
        builder.defaultK(10)
            .defaultNprobe(spec.nprobe)
            .searchThreads(4)
            .batching({.maxBatch = 32, .timeoutSeconds = 1e-3});
        if (autopilot) {
            core::DegradationPolicy degrade;
            degrade.enable = true;
            degrade.nprobeFloor = 4;
            degrade.queuePressure = 1.5;
            core::AutopilotPolicy pilot;
            pilot.enable = true;
            // Manual control cycles (stepped between phases) keep the
            // bench deterministic; a real deployment sets an interval.
            pilot.controlIntervalSeconds = 0.0;
            pilot.minBatchObservations = 2;
            pilot.maxBatchCap = 64;
            pilot.maxShards = 4;
            // At this reduced scale every search meets the 150 ms SLO
            // even fully cold, so the unconstrained model picks rho=0;
            // the floor keeps a live hot tier so drift shows up as a
            // hot-set flip (and a repartition) rather than a no-op.
            pilot.minRho = 0.2;
            builder.degradation(degrade).autopilot(pilot);
        }
        const auto engine = builder.build();

        auto run_cycle = [&] {
            if (autopilot)
                engine->autopilot()->runControlCycle();
        };

        std::vector<PhaseResult> phases;
        const auto pre_queries = gen.generate(n_phase);
        phases.push_back(servePhase("pre-drift", *engine, tiered,
                                    pre_queries, n_phase, spec.dim,
                                    deadline_s));
        run_cycle();

        // Shift popularity for most clusters: the calibrated hot set
        // goes stale.
        gen.drift(0.9);
        const auto post_queries = gen.generate(n_phase);
        phases.push_back(servePhase("post-drift", *engine, tiered,
                                    post_queries, n_phase, spec.dim,
                                    deadline_s));
        run_cycle();

        // Same drifted stream once more: the autopilot now serves it
        // from the rebuilt placement.
        const auto rec_queries = gen.generate(n_phase);
        phases.push_back(servePhase("recovered", *engine, tiered,
                                    rec_queries, n_phase, spec.dim,
                                    deadline_s));
        run_cycle();

        const std::size_t rebuilds = tiered.stats().repartitions;
        for (const PhaseResult &p : phases)
            t.addRow({mode, p.name,
                      TextTable::num(p.search.p50 * 1e3, 2),
                      TextTable::num(p.search.p99 * 1e3, 2),
                      TextTable::pct(p.meanHitRate),
                      TextTable::pct(p.hotProbeFraction),
                      std::to_string(p.expired),
                      std::to_string(p.degraded),
                      std::to_string(rebuilds)});

        if (autopilot)
            autopilot_stats = engine->stats();
        all_phases[m] = std::move(phases);
    }
    t.print(std::cout);

    const double static_miss = configMissRate(all_phases[0]);
    const double autopilot_miss = configMissRate(all_phases[1]);
    std::cout << "\nexpired+rejected rate: static "
              << TextTable::pct(static_miss) << ", autopilot "
              << TextTable::pct(autopilot_miss) << " -> autopilot "
              << (autopilot_miss <= static_miss ? "PASS (<= static)"
                                                : "FAIL (> static)")
              << "\n";

    // --- JSON snapshots ------------------------------------------------
    {
        std::ofstream os("BENCH_repartition.json");
        bench::JsonWriter w(os);
        w.beginObject();
        w.kv("bench", "repartition");
        w.kv("smoke", args.smoke);
        w.kv("queriesPerPhase", n_phase);
        w.kv("deadlineSeconds", deadline_s);
        w.key("configs");
        w.beginArray();
        for (std::size_t m = 0; m < modes.size(); ++m) {
            w.beginObject();
            w.kv("name", modes[m]);
            w.kv("missRate", configMissRate(all_phases[m]));
            w.key("phases");
            w.beginArray();
            for (const PhaseResult &p : all_phases[m])
                writePhaseJson(w, p);
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }
    {
        std::ofstream os("BENCH_autopilot.json");
        bench::JsonWriter w(os);
        w.beginObject();
        w.kv("bench", "autopilot");
        w.kv("smoke", args.smoke);
        w.key("missRates");
        w.beginObject();
        w.kv("static", static_miss);
        w.kv("autopilot", autopilot_miss);
        w.endObject();
        w.kv("autopilotNoWorseThanStatic",
             autopilot_miss <= static_miss);
        w.kv("controlCycles", autopilot_stats.autopilotCycles);
        w.kv("repartitions", autopilot_stats.autopilotRepartitions);
        w.kv("degradedServed", autopilot_stats.degradedServed);
        w.kv("degradedBatches", autopilot_stats.degradedBatches);
        w.kv("finalBatchCap", autopilot_stats.currentBatchCap);
        w.key("decisions");
        w.beginArray();
        for (const auto &d : autopilot_stats.autopilotTrace) {
            w.beginObject();
            w.kv("atSeconds", d.atSeconds);
            w.kv("arrivalRate", d.arrivalRate);
            w.kv("missRate", d.missRate);
            w.kv("modelRho", d.modelRho);
            w.kv("rho", d.rho);
            w.kv("hotShards", d.hotShards);
            w.kv("batchCap", d.batchCap);
            w.kv("repartitioned", d.repartitioned);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }
    std::cout << "\nwrote BENCH_repartition.json and "
                 "BENCH_autopilot.json\n";

    std::cout
        << "\n'hot probes' is the fraction of probes served by the hot "
           "shards in each\nphase; 'rebuilds' counts the config's "
           "completed repartitions. After drift\nthe static config "
           "keeps the stale placement and its backlogged tail\nexpires; "
           "the autopilot refits the perf model from live batches, "
           "re-picks\nrho / shards / batch cap with the partitioner, "
           "rebuilds the hot tier and\ndegrades nprobe under pressure "
           "instead of letting requests expire.\nIn-flight batches keep "
           "searching the old snapshot until the atomic swap\n(paper "
           "Fig. 9's background-update claim).\n";
    return autopilot_miss <= static_miss ? 0 : 1;
}
