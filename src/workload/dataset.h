/**
 * @file
 * Synthetic clustered datasets standing in for the paper's corpora.
 *
 * The paper evaluates on Wiki-All (88M x 768-dim vectors, 18 GB IVF-PQ
 * index) and two ORCAS-derived indexes (Stella embeddings of 1024 /
 * 2048 dims; 40 GB and 80 GB). Neither corpus nor the hardware to hold
 * them is available here, so each preset generates a Gaussian-mixture
 * corpus at reduced scale whose *cluster-level statistics* — size skew
 * and query access skew — are calibrated to the paper's measurements
 * (Fig. 5: top 20% of clusters cover ~59% of accesses for Wiki-All and
 * ~93% for ORCAS). A per-preset scale factor maps simulated vector
 * counts and bytes back to paper scale for the cost models.
 */

#ifndef VLR_WORKLOAD_DATASET_H
#define VLR_WORKLOAD_DATASET_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "simgpu/search_cost.h"
#include "vecsearch/ivf.h"

namespace vlr::wl
{

/** Everything needed to instantiate a dataset and its cost model. */
struct DatasetSpec
{
    std::string name;

    // --- reduced-scale generation parameters ---
    std::size_t numVectors = 60000;
    std::size_t dim = 48;
    /** Mixture components; doubles as the IVF nlist. */
    std::size_t numClusters = 512;
    /** Zipf exponent of generator cluster sizes. */
    double clusterSizeZipf = 0.6;
    /** Zipf exponent of query popularity over clusters. */
    double queryZipf = 0.7;
    /** Stddev of vectors around their cluster center. */
    double withinClusterStd = 0.18;
    /** Stddev of query displacement from the sampled center. */
    double queryStd = 0.24;
    /** Distance scale between cluster centers (unit hypersphere-ish). */
    double centerScale = 1.0;
    std::size_t nprobe = 16;
    std::uint64_t seed = 7;

    // --- paper-scale mapping ---
    /** nprobe at paper scale (the paper uses 2048); scales GPU kernel
     *  pair counts: one simulated probe stands for paperNprobe/nprobe
     *  launched blocks. */
    std::size_t paperNprobe = 2048;
    double paperVectors = 88e6;
    bytes_t paperIndexBytes = 18_GiB;
    /** CPU latency constants calibrated for this index at paper scale. */
    gpu::CpuSearchParams cpuParams;
    /** Table I retrieval SLO. */
    double sloSearchSeconds = 0.150;

    /** Paper-scale vectors represented by one simulated vector. */
    double
    scaleFactor() const
    {
        return paperVectors / static_cast<double>(numVectors);
    }

    /** Paper-scale index bytes per simulated vector. */
    double
    bytesPerSimVector() const
    {
        return static_cast<double>(paperIndexBytes) /
               static_cast<double>(numVectors);
    }
};

/** Wiki-All-like: moderate skew, 18 GB, SLO 150 ms. */
DatasetSpec wikiAllSpec();
/** ORCAS-1K-like: heavy skew, 40 GB, SLO 200 ms. */
DatasetSpec orcas1kSpec();
/** ORCAS-2K-like: heavy skew, 80 GB, SLO 300 ms. */
DatasetSpec orcas2kSpec();
/** Tiny spec for unit tests (fast to build). */
DatasetSpec tinySpec();
DatasetSpec specByName(const std::string &name);

/**
 * A generated dataset. `buildStats()` creates only centers, cluster
 * sizes and queries (all the serving experiments need); `buildVectors()`
 * additionally materializes the corpus for real index construction.
 */
class SyntheticDataset
{
  public:
    explicit SyntheticDataset(DatasetSpec spec);

    /** Generate centers + cluster sizes (cheap). */
    void buildStats();
    /** Generate the full corpus (calls buildStats() if needed). */
    void buildVectors();

    const DatasetSpec &spec() const { return spec_; }

    /** Generator cluster centers, numClusters * dim. */
    std::span<const float> centers() const;
    /** Simulated vectors per cluster (sums to numVectors). */
    const std::vector<std::size_t> &clusterSizes() const;
    /** Paper-scale bytes of one cluster's index data. */
    double clusterBytes(cluster_id_t c) const;
    /** Corpus vectors (only after buildVectors()). */
    std::span<const float> vectors() const;
    /** Cluster assignment per vector (only after buildVectors()). */
    const std::vector<std::int32_t> &assignments() const;

    /**
     * Coarse quantizer over the generator centers. Using the mixture's
     * own centers as IVF centroids is the scaled-down equivalent of
     * training k-means on the corpus (tested against real k-means in
     * tests/test_dataset.cc).
     */
    std::shared_ptr<vs::FlatCoarseQuantizer> makeCoarseQuantizer() const;

    bool hasStats() const { return statsBuilt_; }
    bool hasVectors() const { return vectorsBuilt_; }

  private:
    DatasetSpec spec_;
    bool statsBuilt_ = false;
    bool vectorsBuilt_ = false;
    std::vector<float> centers_;
    std::vector<std::size_t> clusterSizes_;
    std::vector<float> vectors_;
    std::vector<std::int32_t> assignments_;
};

/**
 * Skewed query stream over a dataset: a cluster is sampled from a
 * Zipf popularity law (through a hidden permutation so popularity is
 * uncorrelated with cluster id), then the query is the center plus
 * Gaussian displacement. supports distribution drift for the online
 * update experiments.
 */
class QueryGenerator
{
  public:
    QueryGenerator(const SyntheticDataset &dataset, std::uint64_t seed);

    /** Generate n queries (n * dim floats). */
    std::vector<float> generate(std::size_t n);

    /**
     * Shift the popularity law: re-draws the rank permutation for a
     * fraction of clusters, modelling the temporal drift of Section
     * IV-B3.
     */
    void drift(double fraction);

    const std::vector<std::uint32_t> &popularityOrder() const;

  private:
    const SyntheticDataset &dataset_;
    Rng rng_;
    ZipfSampler zipf_;
    /** popularity rank -> cluster id */
    std::vector<std::uint32_t> order_;
};

} // namespace vlr::wl

#endif // VLR_WORKLOAD_DATASET_H
