/**
 * @file
 * Figure 3 reproduction (real wall-clock on this host's CPU).
 *
 * Left: search latency of standard IVF-PQ vs IVF-PQ fast scan at equal
 * configuration — fast scan should win clearly at every batch size.
 * Right: latency breakdown of the fast-scan search into coarse
 * quantization (CQ), LUT construction and LUT scanning — LUT stages
 * dominate, motivating the paper's GPU offload of exactly that stage.
 *
 * The paper measures a 128M-vector index; this bench builds a reduced
 * synthetic corpus (same pipeline, smaller n) so it runs in seconds.
 * Absolute times differ from the paper; the *shape* — IVF-FS much
 * faster than IVF, LUT dominating CQ — is the reproduced result.
 */

#include <iostream>

#include "bench_util.h"
#include "common/timer.h"

using namespace vlr;

namespace
{

struct BuiltIndexes
{
    std::shared_ptr<vs::FlatCoarseQuantizer> cq;
    std::unique_ptr<vs::IvfPqIndex> ivf;
    std::unique_ptr<vs::IvfPqFastScanIndex> fs;
    std::vector<float> queries;
    std::size_t dim = 0;
};

BuiltIndexes
buildIndexes(std::size_t n, std::size_t dim, std::size_t nlist,
             std::size_t m)
{
    wl::DatasetSpec spec = wl::tinySpec();
    spec.numVectors = n;
    spec.dim = dim;
    spec.numClusters = nlist;
    wl::SyntheticDataset ds(spec);
    ds.buildVectors();

    BuiltIndexes out;
    out.dim = dim;
    out.cq = ds.makeCoarseQuantizer();
    // Same PQ4 configuration for both indexes; the only difference is
    // the scan kernel (plain ADC vs register-blocked fast scan).
    out.ivf = std::make_unique<vs::IvfPqIndex>(out.cq, m, 4);
    out.fs = std::make_unique<vs::IvfPqFastScanIndex>(out.cq, m);
    out.ivf->train(ds.vectors(), n);
    out.fs->train(ds.vectors(), n);
    out.ivf->addPreassigned(ds.vectors(), n, ds.assignments());
    out.fs->addPreassigned(ds.vectors(), n, ds.assignments());

    wl::QueryGenerator gen(ds, 123);
    out.queries = gen.generate(64);
    return out;
}

double
timeSearch(const auto &index, const std::vector<float> &queries,
           std::size_t dim, std::size_t batch, std::size_t nprobe,
           vs::SearchBreakdown *bd = nullptr)
{
    WallTimer t;
    const int reps = 5;
    for (int r = 0; r < reps; ++r)
        index.searchBatch(
            std::span<const float>(queries.data(), batch * dim), batch,
            10, nprobe, bd);
    return t.elapsed() / reps;
}

} // namespace

int
main()
{
    printBanner(std::cout, "Figure 3: IVF vs IVF fast scan (measured)");

    const std::size_t n = 60000, dim = 32, nlist = 256, m = 8;
    const std::size_t nprobe = 48;
    auto built = buildIndexes(n, dim, nlist, m);

    std::cout << "index: " << n << " x " << dim << " vectors, nlist "
              << nlist << ", PQ" << m << "x4, nprobe " << nprobe
              << ", " << vs::fastScanKernelName(vs::servingFastScanKernel())
              << " fast-scan kernel\n"
              << '\n';

    TextTable left({"batch", "IVF (ms)", "IVF-FS (ms)",
                    "IVF-FS normalized", "speedup"});
    for (const std::size_t batch : {4ul, 16ul}) {
        const double t_ivf =
            timeSearch(*built.ivf, built.queries, dim, batch, nprobe);
        const double t_fs =
            timeSearch(*built.fs, built.queries, dim, batch, nprobe);
        left.addRow({std::to_string(batch),
                     TextTable::num(t_ivf * 1e3, 2),
                     TextTable::num(t_fs * 1e3, 2),
                     TextTable::num(t_fs / t_ivf, 3),
                     TextTable::num(t_ivf / t_fs, 2) + "x"});
    }
    left.print(std::cout);
    std::cout << "\npaper: IVF-FS is significantly faster than IVF at "
                 "both batch sizes.\n\n";

    printBanner(std::cout, "Figure 3 (right): IVF-FS latency breakdown");
    TextTable right({"batch", "CQ (ms)", "LUT build (ms)",
                     "LUT scan (ms)", "LUT share"});
    for (const std::size_t batch : {2ul, 8ul}) {
        vs::SearchBreakdown bd;
        timeSearch(*built.fs, built.queries, dim, batch, nprobe, &bd);
        const double lut = bd.lutBuildSeconds + bd.scanSeconds;
        right.addRow({std::to_string(batch),
                      TextTable::num(bd.cqSeconds * 1e3 / 5, 2),
                      TextTable::num(bd.lutBuildSeconds * 1e3 / 5, 2),
                      TextTable::num(bd.scanSeconds * 1e3 / 5, 2),
                      TextTable::pct(lut / bd.total())});
    }
    right.print(std::cout);
    std::cout << "\npaper: lookup-table operations dominate overall "
                 "search time.\n";
    return 0;
}
