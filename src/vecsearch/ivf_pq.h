/**
 * @file
 * IVF-PQ: inverted lists storing product-quantized codes, searched with
 * asymmetric distance computation. Exposes the CQ / LUT-construction /
 * LUT-scan timing breakdown the paper analyzes in Fig. 3 (right).
 */

#ifndef VLR_VECSEARCH_IVF_PQ_H
#define VLR_VECSEARCH_IVF_PQ_H

#include <memory>
#include <span>
#include <vector>

#include "vecsearch/ivf.h"
#include "vecsearch/pq.h"

namespace vlr::vs
{

/** Wall-clock breakdown of one (batched) IVF-PQ search. */
struct SearchBreakdown
{
    double cqSeconds = 0.0;
    double lutBuildSeconds = 0.0;
    double scanSeconds = 0.0;

    double
    total() const
    {
        return cqSeconds + lutBuildSeconds + scanSeconds;
    }
};

/**
 * IVF index with PQ-encoded lists.
 *
 * With `byResidual` the PQ encodes the residual (x - centroid) and a LUT
 * is built per (query, probe) pair; without it a single LUT per query is
 * shared across probes (cheaper construction, slightly lower recall),
 * mirroring the Faiss trade-off.
 */
class IvfPqIndex
{
  public:
    IvfPqIndex(std::shared_ptr<const FlatCoarseQuantizer> cq, std::size_t m,
               std::size_t nbits, bool by_residual = false);

    /** Train the PQ codebooks on a sample of the corpus. */
    void train(std::span<const float> data, std::size_t n,
               const KMeansParams &params = {});

    void add(std::span<const float> vecs, std::size_t n);
    void addPreassigned(std::span<const float> vecs, std::size_t n,
                        std::span<const std::int32_t> assign);

    std::vector<SearchHit> search(const float *query, std::size_t k,
                                  std::size_t nprobe,
                                  SearchBreakdown *bd = nullptr) const;

    /** Scan an explicit cluster set (hybrid CPU path). */
    std::vector<SearchHit> searchClusters(
        const float *query, std::size_t k,
        std::span<const cluster_id_t> clusters,
        SearchBreakdown *bd = nullptr) const;

    std::vector<std::vector<SearchHit>> searchBatch(
        std::span<const float> queries, std::size_t nq, std::size_t k,
        std::size_t nprobe, SearchBreakdown *bd = nullptr) const;

    const FlatCoarseQuantizer &quantizer() const { return *cq_; }
    const ProductQuantizer &pq() const { return pq_; }
    bool byResidual() const { return byResidual_; }
    std::size_t dim() const { return cq_->dim(); }
    std::size_t nlist() const { return cq_->nlist(); }
    std::size_t size() const { return total_; }
    std::size_t listSize(cluster_id_t c) const;
    std::vector<std::size_t> listSizes() const;
    const std::vector<idx_t> &listIds(cluster_id_t c) const;
    const std::vector<std::uint8_t> &listCodes(cluster_id_t c) const;

    /** Bytes of code + id payload, the "index footprint". */
    std::size_t memoryBytes() const;

  private:
    void scanList(cluster_id_t c, const float *lut, TopK &topk) const;

    std::shared_ptr<const FlatCoarseQuantizer> cq_;
    ProductQuantizer pq_;
    bool byResidual_;
    std::size_t total_ = 0;
    std::vector<std::vector<idx_t>> ids_;
    std::vector<std::vector<std::uint8_t>> codes_;
};

} // namespace vlr::vs

#endif // VLR_VECSEARCH_IVF_PQ_H
