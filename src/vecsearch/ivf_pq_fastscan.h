/**
 * @file
 * IVF index over PQ4 fast-scan packed lists — the paper's CPU-tier index
 * ("IVF-FS"). Lists store codes in the blocked SIMD layout; search
 * quantizes the per-query LUT once and scans every probed list with
 * scanPackedList (fastscan.h), whose kernel is chosen at run time.
 */

#ifndef VLR_VECSEARCH_IVF_PQ_FASTSCAN_H
#define VLR_VECSEARCH_IVF_PQ_FASTSCAN_H

#include <memory>
#include <span>
#include <vector>

#include "vecsearch/fastscan.h"
#include "vecsearch/ivf.h"
#include "vecsearch/ivf_pq.h"
#include "vecsearch/pq.h"

namespace vlr::vs
{

/**
 * Build @p query's float LUT with @p pq into sc.lut and quantize it:
 * the one LUT every list a query scans is scored with, whichever index,
 * shard or mapped tier holds the list.
 */
QuantizedLut buildQuantizedLut(const ProductQuantizer &pq,
                               const float *query, SearchScratch &sc);

/**
 * IVF + PQ4 fast-scan index. PQ must use nbits = 4 and at most
 * kMaxFastScanSub sub-quantizers; the constructor and fromParts() call
 * fatal() otherwise. Distances returned are the uint8-LUT
 * approximations mapped back to floats; they track the plain ADC
 * distances to within one quantization step per sub-quantizer.
 *
 * Search is reentrant: const search methods share no mutable state, so
 * any number of threads may query one index concurrently (a tiered
 * batch scans it from every pool worker).
 */
class IvfPqFastScanIndex
{
  public:
    IvfPqFastScanIndex(std::shared_ptr<const FlatCoarseQuantizer> cq,
                       std::size_t m);

    void train(std::span<const float> data, std::size_t n,
               const KMeansParams &params = {});

    void add(std::span<const float> vecs, std::size_t n);
    /**
     * Append n vectors with precomputed cluster assignments. Each
     * touched list grows in place — tail-block lanes are filled and new
     * blocks appended without unpacking existing codes — so a call
     * costs O(n) regardless of how large the target lists already are
     * (the streaming-ingestion fix; earlier revisions re-packed every
     * touched list wholesale).
     */
    void addPreassigned(std::span<const float> vecs, std::size_t n,
                        std::span<const std::int32_t> assign);

    /**
     * Append already-encoded codes to one inverted list — the storage
     * layer's delta-merge path. @p list_ids must continue this index's
     * id numbering (the caller assigned them at encode time); @p codes
     * holds list_ids.size() * numSub() bytes of 4-bit codes.
     */
    void appendEncoded(cluster_id_t c, std::span<const idx_t> list_ids,
                       std::span<const std::uint8_t> codes);

    std::vector<SearchHit> search(const float *query, std::size_t k,
                                  std::size_t nprobe,
                                  SearchBreakdown *bd = nullptr,
                                  SearchScratch *scratch = nullptr) const;

    std::vector<SearchHit> searchClusters(
        const float *query, std::size_t k,
        std::span<const cluster_id_t> clusters,
        SearchBreakdown *bd = nullptr,
        SearchScratch *scratch = nullptr) const;

    /**
     * Scan @p clusters into a caller-owned @p topk with a prepared
     * LUT: the list loop behind searchClusters(). @p qlut must come
     * from this index's PQ (buildQuantizedLut). @p topk may already
     * hold hits from other lists; it keeps the k least hits under the
     * (dist, id) order whatever order the lists arrive in.
     */
    void scanClusters(const QuantizedLut &qlut,
                      std::span<const cluster_id_t> clusters,
                      SearchScratch &scratch, TopK &topk) const;

    std::vector<std::vector<SearchHit>> searchBatch(
        std::span<const float> queries, std::size_t nq, std::size_t k,
        std::size_t nprobe, SearchBreakdown *bd = nullptr) const;

    /**
     * Rebuild an index from a trained PQ and exported inverted lists —
     * the deserialization path (storage::IndexStore). The lists are
     * adopted verbatim, so searches on the restored index are
     * bit-identical to the index they were exported from. size() is
     * the sum of list sizes; @p ids/@p packed must have nlist entries
     * with packed sized to whole fast-scan blocks.
     */
    static IvfPqFastScanIndex fromParts(
        std::shared_ptr<const FlatCoarseQuantizer> cq, ProductQuantizer pq,
        std::vector<std::vector<idx_t>> ids,
        std::vector<std::vector<std::uint8_t>> packed);

    /** Vector ids of one inverted list, in stored (scan) order. */
    std::span<const idx_t> listIds(cluster_id_t c) const;
    /** Packed fast-scan codes of one inverted list (whole blocks). */
    std::span<const std::uint8_t> listPacked(cluster_id_t c) const;

    const FlatCoarseQuantizer &quantizer() const { return *cq_; }
    const ProductQuantizer &pq() const { return pq_; }
    std::size_t dim() const { return cq_->dim(); }
    std::size_t nlist() const { return cq_->nlist(); }
    std::size_t size() const { return total_; }
    std::size_t listSize(cluster_id_t c) const;
    std::vector<std::size_t> listSizes() const;
    /** Resident bytes (ids + packed codes) of one inverted list. */
    std::size_t listBytes(cluster_id_t c) const;
    std::size_t memoryBytes() const;

  private:
    std::shared_ptr<const FlatCoarseQuantizer> cq_;
    ProductQuantizer pq_;
    std::size_t total_ = 0;
    std::vector<std::vector<idx_t>> ids_;
    std::vector<std::vector<std::uint8_t>> packed_;
};

} // namespace vlr::vs

#endif // VLR_VECSEARCH_IVF_PQ_FASTSCAN_H
