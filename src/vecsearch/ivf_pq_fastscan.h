/**
 * @file
 * IVF index over PQ4 fast-scan packed lists — the paper's CPU-tier index
 * ("IVF-FS"). Lists store codes in the blocked SIMD layout; search
 * quantizes the per-query LUT once and scans blocks with the AVX2 kernel.
 */

#ifndef VLR_VECSEARCH_IVF_PQ_FASTSCAN_H
#define VLR_VECSEARCH_IVF_PQ_FASTSCAN_H

#include <memory>
#include <span>
#include <vector>

#include "common/threadpool.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/ivf.h"
#include "vecsearch/ivf_pq.h"
#include "vecsearch/pq.h"

namespace vlr::vs
{

/**
 * Reusable per-thread buffers for fast-scan searches. Passing one in
 * avoids re-allocating the LUT and score buffers on every query; a
 * default-constructed scratch is grown on first use.
 */
struct SearchScratch
{
    std::vector<float> lut;
    std::vector<std::uint16_t> scores;
};

/**
 * Score one packed inverted list with the fast-scan kernel and push the
 * lanes that enter @p topk. This is the one scan+top-k loop behind
 * every fast-scan list reader — IvfPqFastScanIndex and the storage
 * layer's memory-mapped cold tier — so their distances are
 * bit-identical by construction. @p ids holds the list's @p count
 * vector ids in scan order and @p packed its whole fast-scan blocks;
 * sc.scores grows as needed.
 *
 * Lanes are pushed until @p topk is full. After that, the k-th best hit
 * (wd, wid) splits the scores into three bands:
 *  - up to below = scoreBound(nextafter(wd, -inf)): distance < wd;
 *  - in (below, bound = scoreBound(wd)]: distance == wd;
 *  - above bound: distance > wd.
 * Each 16-lane group is tested with SIMD compares. A lane passes if it
 * scores at most below, or lies in the tie band with an id below wid
 * (four 64-bit compares per group). Every passing lane is confirmed by
 * TopK::accepts, and only accepted lanes are pushed and refresh bound,
 * below and wid.
 *
 * The filter is exact. QuantizedLut::distance is monotone in the score,
 * so the bands pass precisely the lanes TopK keeps once full: d < wd,
 * or d == wd and id < wid. (A LUT whose map is not monotone gets both
 * bounds 65535, and accepts() decides every lane.) accepts() also
 * settles lanes masked before a push tightened the k-th best. The hits
 * therefore equal those of pushing every lane, bit for bit. A lane
 * scoring bound is not always a tie: when wd lies off the score grid
 * (a heap filled from another list or LUT), distance(bound) < wd, and
 * the lane enters whatever its id.
 *
 * Scores are padded to whole blocks but @p ids is not: the id test of a
 * partial last group reads only the ids before @p count, which in the
 * cold tier lie inside the mapped file.
 */
void scanPackedList(std::size_t m, const idx_t *ids, std::size_t count,
                    const std::uint8_t *packed, const QuantizedLut &qlut,
                    SearchScratch &sc, TopK &topk);

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
 * any number of threads may query one index concurrently (the engine's
 * batch executor relies on this).
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
     * Multi-query search fanned out across a thread pool with dynamic
     * load balancing and per-thread scratch reuse. Results are
     * bit-identical to searchBatch() regardless of thread count; the
     * aggregated breakdown sums per-query stage times (CPU work, not
     * wall clock).
     */
    std::vector<std::vector<SearchHit>> searchBatchParallel(
        std::span<const float> queries, std::size_t nq, std::size_t k,
        std::size_t nprobe, ThreadPool &pool,
        SearchBreakdown *bd = nullptr) const;

    /**
     * Per-query-nprobe variant: query i probes nprobes[i] lists (nq
     * entries). Lets the serving dispatcher batch requests with
     * heterogeneous probe depths; each query's hits are bit-identical
     * to a serial search(query, k, nprobes[i]).
     */
    std::vector<std::vector<SearchHit>> searchBatchParallel(
        std::span<const float> queries, std::size_t nq, std::size_t k,
        std::span<const std::size_t> nprobes, ThreadPool &pool,
        SearchBreakdown *bd = nullptr) const;

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
