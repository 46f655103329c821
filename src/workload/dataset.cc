#include "workload/dataset.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/log.h"

namespace vlr::wl
{

DatasetSpec
wikiAllSpec()
{
    DatasetSpec s;
    s.name = "Wiki-All";
    s.numVectors = 60000;
    s.dim = 48;
    s.numClusters = 512;
    s.clusterSizeZipf = 0.45;
    s.queryZipf = 0.70;
    s.nprobe = 16;
    s.seed = 101;
    s.paperVectors = 88e6;
    s.paperIndexBytes = 18_GiB;
    s.sloSearchSeconds = 0.150;
    s.cpuParams.cqFixedSeconds = 0.012;
    s.cpuParams.cqPerQuerySeconds = 0.0010;
    s.cpuParams.lutFixedSeconds = 0.085;
    s.cpuParams.lutPerQuerySeconds = 0.0060;
    return s;
}

DatasetSpec
orcas1kSpec()
{
    DatasetSpec s;
    s.name = "ORCAS-1K";
    s.numVectors = 70000;
    s.dim = 56;
    s.numClusters = 512;
    s.clusterSizeZipf = 0.75;
    s.queryZipf = 2.1;
    s.nprobe = 16;
    s.seed = 202;
    s.paperVectors = 120e6;
    s.paperIndexBytes = 40_GiB;
    s.sloSearchSeconds = 0.200;
    s.cpuParams.cqFixedSeconds = 0.016;
    s.cpuParams.cqPerQuerySeconds = 0.0012;
    s.cpuParams.lutFixedSeconds = 0.125;
    s.cpuParams.lutPerQuerySeconds = 0.0090;
    return s;
}

DatasetSpec
orcas2kSpec()
{
    DatasetSpec s;
    s.name = "ORCAS-2K";
    s.numVectors = 70000;
    s.dim = 64;
    s.numClusters = 512;
    s.clusterSizeZipf = 0.75;
    s.queryZipf = 2.1;
    s.nprobe = 16;
    s.seed = 303;
    s.paperVectors = 120e6;
    s.paperIndexBytes = 80_GiB;
    s.sloSearchSeconds = 0.300;
    s.cpuParams.cqFixedSeconds = 0.020;
    s.cpuParams.cqPerQuerySeconds = 0.0015;
    s.cpuParams.lutFixedSeconds = 0.185;
    s.cpuParams.lutPerQuerySeconds = 0.0140;
    return s;
}

DatasetSpec
tinySpec()
{
    DatasetSpec s;
    s.name = "tiny";
    s.numVectors = 4000;
    s.dim = 16;
    s.numClusters = 64;
    s.clusterSizeZipf = 0.6;
    s.queryZipf = 0.9;
    s.nprobe = 8;
    s.seed = 11;
    s.paperVectors = 4e6;
    s.paperIndexBytes = 1_GiB;
    s.sloSearchSeconds = 0.100;
    return s;
}

DatasetSpec
specByName(const std::string &name)
{
    if (name == "wiki-all")
        return wikiAllSpec();
    if (name == "orcas-1k")
        return orcas1kSpec();
    if (name == "orcas-2k")
        return orcas2kSpec();
    if (name == "tiny")
        return tinySpec();
    fatal("unknown dataset spec: " + name);
}

SyntheticDataset::SyntheticDataset(DatasetSpec spec)
    : spec_(std::move(spec))
{
}

void
SyntheticDataset::buildStats()
{
    if (statsBuilt_)
        return;
    Rng rng(spec_.seed);

    // Cluster centers: isotropic Gaussian placement.
    centers_.resize(spec_.numClusters * spec_.dim);
    for (auto &v : centers_)
        v = static_cast<float>(rng.gaussian(0.0, spec_.centerScale));

    // Cluster sizes: Zipf shares over a random permutation so size rank
    // is uncorrelated with cluster id.
    ZipfSampler size_law(spec_.numClusters, spec_.clusterSizeZipf);
    std::vector<std::size_t> perm(spec_.numClusters);
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);

    clusterSizes_.assign(spec_.numClusters, 0);
    std::size_t assigned = 0;
    for (std::size_t rank = 0; rank < spec_.numClusters; ++rank) {
        const auto share = size_law.pmf(rank);
        const auto sz = static_cast<std::size_t>(
            share * static_cast<double>(spec_.numVectors));
        clusterSizes_[perm[rank]] = sz;
        assigned += sz;
    }
    // Distribute rounding remainder one vector at a time.
    std::size_t c = 0;
    while (assigned < spec_.numVectors) {
        ++clusterSizes_[c % spec_.numClusters];
        ++assigned;
        ++c;
    }
    statsBuilt_ = true;
}

void
SyntheticDataset::buildVectors()
{
    if (vectorsBuilt_)
        return;
    buildStats();
    Rng rng(spec_.seed ^ 0xDA7A5E7ULL);

    vectors_.resize(spec_.numVectors * spec_.dim);
    assignments_.resize(spec_.numVectors);
    std::size_t out = 0;
    for (std::size_t c = 0; c < spec_.numClusters; ++c) {
        const float *center = centers_.data() + c * spec_.dim;
        for (std::size_t i = 0; i < clusterSizes_[c]; ++i) {
            float *v = vectors_.data() + out * spec_.dim;
            for (std::size_t j = 0; j < spec_.dim; ++j) {
                v[j] = center[j] + static_cast<float>(rng.gaussian(
                                       0.0, spec_.withinClusterStd));
            }
            assignments_[out] = static_cast<std::int32_t>(c);
            ++out;
        }
    }
    assert(out == spec_.numVectors);
    vectorsBuilt_ = true;
}

std::span<const float>
SyntheticDataset::centers() const
{
    assert(statsBuilt_);
    return centers_;
}

const std::vector<std::size_t> &
SyntheticDataset::clusterSizes() const
{
    assert(statsBuilt_);
    return clusterSizes_;
}

double
SyntheticDataset::clusterBytes(cluster_id_t c) const
{
    assert(statsBuilt_);
    assert(c >= 0 && static_cast<std::size_t>(c) < clusterSizes_.size());
    return static_cast<double>(clusterSizes_[static_cast<std::size_t>(c)]) *
           spec_.bytesPerSimVector();
}

std::span<const float>
SyntheticDataset::vectors() const
{
    assert(vectorsBuilt_);
    return vectors_;
}

const std::vector<std::int32_t> &
SyntheticDataset::assignments() const
{
    assert(vectorsBuilt_);
    return assignments_;
}

std::shared_ptr<vs::FlatCoarseQuantizer>
SyntheticDataset::makeCoarseQuantizer() const
{
    assert(statsBuilt_);
    return std::make_shared<vs::FlatCoarseQuantizer>(
        centers_, spec_.numClusters, spec_.dim);
}

QueryGenerator::QueryGenerator(const SyntheticDataset &dataset,
                               std::uint64_t seed)
    : dataset_(dataset), rng_(seed),
      zipf_(dataset.spec().numClusters, dataset.spec().queryZipf),
      order_(dataset.spec().numClusters)
{
    assert(dataset.hasStats());
    std::iota(order_.begin(), order_.end(), 0);
    // Bias popularity toward larger clusters: sort by size descending
    // with random tie-breaks, matching the paper's observation that
    // k-means imbalance itself concentrates traffic (Section III-B).
    const auto &sizes = dataset_.clusterSizes();
    std::vector<std::uint64_t> salt(order_.size());
    for (auto &s : salt)
        s = rng_.nextU64();
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (sizes[a] != sizes[b])
                      return sizes[a] > sizes[b];
                  return salt[a] < salt[b];
              });
}

std::vector<float>
QueryGenerator::generate(std::size_t n)
{
    const auto &spec = dataset_.spec();
    std::vector<float> out(n * spec.dim);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t rank = zipf_.sample(rng_);
        const std::uint32_t c = order_[rank];
        const float *center = dataset_.centers().data() + c * spec.dim;
        float *q = out.data() + i * spec.dim;
        for (std::size_t j = 0; j < spec.dim; ++j) {
            q[j] = center[j] +
                   static_cast<float>(rng_.gaussian(0.0, spec.queryStd));
        }
    }
    return out;
}

void
QueryGenerator::drift(double fraction)
{
    fraction = std::clamp(fraction, 0.0, 1.0);
    const auto n = static_cast<std::size_t>(
        fraction * static_cast<double>(order_.size()));
    if (n < 2)
        return;
    // Rotate the top-n popularity ranks: previously-cold clusters
    // become hot, which is the drift a repartition must absorb.
    std::vector<std::uint32_t> head(order_.begin(), order_.begin() + n);
    std::rotate(head.begin(), head.begin() + n / 2, head.end());
    std::copy(head.begin(), head.end(), order_.begin());
}

const std::vector<std::uint32_t> &
QueryGenerator::popularityOrder() const
{
    return order_;
}

} // namespace vlr::wl
