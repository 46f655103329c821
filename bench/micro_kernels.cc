/**
 * @file
 * Google-benchmark microbenchmarks of the real vector-search kernels:
 * distance computation, coarse quantization, ADC LUT construction,
 * plain ADC scanning, PQ4 fast scanning and the per-list scan plus
 * top-k. These back the Fig. 3 claim that fast scan out-throughputs
 * plain ADC by a wide margin on the same codes.
 */

#include <algorithm>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/ivf.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/metric.h"
#include "vecsearch/pq.h"
#include "vecsearch/topk.h"
#include "workload/dataset.h"

namespace
{

using namespace vlr;
using namespace vlr::vs;

std::vector<float>
gaussianData(std::size_t n, std::size_t d, std::uint64_t seed = 1)
{
    Rng rng(seed);
    std::vector<float> v(n * d);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian());
    return v;
}

void
BM_L2Distance(benchmark::State &state)
{
    const std::size_t d = static_cast<std::size_t>(state.range(0));
    const auto a = gaussianData(1, d, 1);
    const auto b = gaussianData(1, d, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(l2Sqr(a.data(), b.data(), d));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * d * 2 * sizeof(float)));
}
BENCHMARK(BM_L2Distance)->Arg(64)->Arg(128)->Arg(768)->Arg(1024);

void
BM_DistancesToMany(benchmark::State &state)
{
    const std::size_t n = 4096, d = 128;
    const auto q = gaussianData(1, d, 1);
    const auto base = gaussianData(n, d, 2);
    std::vector<float> out(n);
    for (auto _ : state)
        distancesToMany(Metric::L2, q.data(), base.data(), n, d,
                        out.data());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_DistancesToMany);

/**
 * FlatCoarseQuantizer::probe at the benchmark corpus's CQ shape:
 * nlist 1024, d 64, nprobe 32, over Wiki-All-like centers with queries
 * drawn around them. Items are centroids scored.
 */
void
BM_CoarseProbe(benchmark::State &state)
{
    const std::size_t nlist = 1024, d = 64, nprobe = 32, nq = 256;
    wl::DatasetSpec spec = wl::wikiAllSpec();
    spec.dim = d;
    spec.numClusters = nlist;
    wl::SyntheticDataset ds(spec);
    ds.buildStats();
    const auto cq = ds.makeCoarseQuantizer();
    const auto queries = wl::QueryGenerator(ds, 8).generate(nq);
    std::size_t i = 0;
    for (auto _ : state) {
        const auto pl = cq->probe(queries.data() + i * d, nprobe);
        benchmark::DoNotOptimize(pl.clusters.data());
        i = (i + 1) % nq;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * nlist));
}
BENCHMARK(BM_CoarseProbe);

struct PqSetup
{
    ProductQuantizer pq;
    std::vector<std::uint8_t> codes;
    std::vector<float> query;
    std::vector<float> lut;

    PqSetup(std::size_t m, std::size_t nbits, std::size_t n)
        : pq(64, m, nbits)
    {
        const auto data = gaussianData(n, 64, 3);
        pq.train(data, n);
        codes = pq.encodeBatch(data, n);
        query = gaussianData(1, 64, 4);
        lut.resize(pq.lutSize());
        pq.computeLut(query.data(), lut.data());
    }
};

void
BM_PqLutBuild(benchmark::State &state)
{
    PqSetup s(8, 8, 2000);
    for (auto _ : state)
        s.pq.computeLut(s.query.data(), s.lut.data());
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * s.pq.lutSize()));
}
BENCHMARK(BM_PqLutBuild);

void
BM_AdcScan(benchmark::State &state)
{
    const std::size_t n = 8192;
    PqSetup s(8, 8, n);
    TopK topk(10);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            benchmark::DoNotOptimize(s.pq.adcDistance(
                s.lut.data(), s.codes.data() + i * 8));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_AdcScan);

void
BM_FastScan(benchmark::State &state)
{
    const std::size_t n = 8192, m = 8;
    PqSetup s(m, 4, n);
    const auto packed = packPq4Codes(m, s.codes, n);
    const auto qlut = quantizeLut(m, s.lut);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);
    std::vector<std::uint16_t> scores(nblocks * kFastScanBlock);
    for (auto _ : state)
        scanPq4Blocks(m, packed.data(), nblocks, qlut, scores.data());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(fastScanHasSimd() ? "avx2" : "scalar");
}
BENCHMARK(BM_FastScan);

/**
 * The per-list scan plus top-k (vs::scanPackedList) at k = 10 over the
 * list BM_FastScan scores; the gap to BM_FastScan is the top-k cost.
 * With ties:1 every lane carries the first lane's code and the ids are
 * shuffled, as in the collapsed clusters of a heavy-skew corpus: every
 * lane ties the k-th best and is settled by its id.
 */
void
BM_ListScanTopK(benchmark::State &state)
{
    const std::size_t n = 8192, m = 8;
    const bool ties = state.range(0) != 0;
    PqSetup s(m, 4, n);
    if (ties)
        for (std::size_t i = 1; i < n; ++i)
            std::copy_n(s.codes.begin(), m, s.codes.begin() + i * m);
    const auto packed = packPq4Codes(m, s.codes, n);
    const auto qlut = quantizeLut(m, s.lut);
    std::vector<idx_t> ids(n);
    for (std::size_t i = 0; i < n; ++i)
        ids[i] = static_cast<idx_t>(i);
    if (ties)
        Rng(6).shuffle(ids);
    SearchScratch scratch;
    for (auto _ : state) {
        TopK topk(10);
        scanPackedList(m, ids.data(), n, packed.data(), qlut, scratch,
                       topk);
        benchmark::DoNotOptimize(topk.worst());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
    state.SetLabel(fastScanHasSimd() ? "avx2" : "scalar");
}
BENCHMARK(BM_ListScanTopK)->ArgName("ties")->Arg(0)->Arg(1);

void
BM_FastScanScalarReference(benchmark::State &state)
{
    const std::size_t n = 8192, m = 8;
    PqSetup s(m, 4, n);
    const auto packed = packPq4Codes(m, s.codes, n);
    const auto qlut = quantizeLut(m, s.lut);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);
    std::vector<std::uint16_t> scores(nblocks * kFastScanBlock);
    for (auto _ : state)
        scanPq4BlocksScalar(m, packed.data(), nblocks, qlut,
                            scores.data());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_FastScanScalarReference);

void
BM_TopKPush(benchmark::State &state)
{
    Rng rng(5);
    std::vector<float> dists(100000);
    for (auto &d : dists)
        d = static_cast<float>(rng.uniform());
    for (auto _ : state) {
        TopK topk(25);
        for (std::size_t i = 0; i < dists.size(); ++i)
            topk.push(static_cast<idx_t>(i), dists[i]);
        benchmark::DoNotOptimize(topk.worst());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * dists.size()));
}
BENCHMARK(BM_TopKPush);

} // namespace

BENCHMARK_MAIN();
