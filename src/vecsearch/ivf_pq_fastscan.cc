#include "vecsearch/ivf_pq_fastscan.h"

#include <cassert>

#include "common/log.h"
#include "common/timer.h"

namespace vlr::vs
{

QuantizedLut
buildQuantizedLut(const ProductQuantizer &pq, const float *query,
                  SearchScratch &sc)
{
    sc.lut.resize(pq.lutSize());
    pq.computeLut(query, sc.lut.data());
    return quantizeLut(pq.numSub(), sc.lut);
}

IvfPqFastScanIndex::IvfPqFastScanIndex(
    std::shared_ptr<const FlatCoarseQuantizer> cq, std::size_t m)
    : cq_(std::move(cq)), pq_(cq_->dim(), m, 4)
{
    if (m > kMaxFastScanSub)
        fatal("IvfPqFastScanIndex: m = " + std::to_string(m) +
              " exceeds " + std::to_string(kMaxFastScanSub) +
              ", where uint16 fast-scan scores can overflow");
    ids_.resize(cq_->nlist());
    packed_.resize(cq_->nlist());
}

void
IvfPqFastScanIndex::train(std::span<const float> data, std::size_t n,
                          const KMeansParams &params)
{
    pq_.train(data, n, params);
}

void
IvfPqFastScanIndex::add(std::span<const float> vecs, std::size_t n)
{
    const std::size_t d = dim();
    std::vector<std::int32_t> assign(n);
    for (std::size_t i = 0; i < n; ++i)
        assign[i] = cq_->probe(vecs.data() + i * d, 1).clusters[0];
    addPreassigned(vecs, n, assign);
}

void
IvfPqFastScanIndex::addPreassigned(std::span<const float> vecs,
                                   std::size_t n,
                                   std::span<const std::int32_t> assign)
{
    const std::size_t d = dim();
    const std::size_t m = pq_.numSub();
    assert(vecs.size() >= n * d);
    assert(assign.size() >= n);

    // Group incoming codes per cluster, then grow each touched list in
    // place: appendPq4Codes fills the tail block's free lanes and adds
    // whole new blocks without unpacking what is already there, so one
    // call costs O(n) codes rather than O(list size).
    std::vector<std::vector<std::uint8_t>> pending(ids_.size());
    std::vector<std::uint8_t> code(m);
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::size_t>(assign[i]);
        assert(c < ids_.size());
        pq_.encode(vecs.data() + i * d, code.data());
        pending[c].insert(pending[c].end(), code.begin(), code.end());
        ids_[c].push_back(static_cast<idx_t>(total_ + i));
    }
    total_ += n;

    for (std::size_t c = 0; c < pending.size(); ++c) {
        if (pending[c].empty())
            continue;
        const std::size_t n_new = pending[c].size() / m;
        const std::size_t n_old = ids_[c].size() - n_new;
        appendPq4Codes(m, packed_[c], n_old, pending[c], n_new);
    }
}

void
IvfPqFastScanIndex::appendEncoded(cluster_id_t c,
                                  std::span<const idx_t> list_ids,
                                  std::span<const std::uint8_t> codes)
{
    const std::size_t m = pq_.numSub();
    const auto ci = static_cast<std::size_t>(c);
    assert(ci < ids_.size());
    assert(codes.size() >= list_ids.size() * m);
    const std::size_t n_old = ids_[ci].size();
    ids_[ci].insert(ids_[ci].end(), list_ids.begin(), list_ids.end());
    appendPq4Codes(m, packed_[ci], n_old, codes, list_ids.size());
    total_ += list_ids.size();
}

std::vector<SearchHit>
IvfPqFastScanIndex::search(const float *query, std::size_t k,
                           std::size_t nprobe, SearchBreakdown *bd,
                           SearchScratch *scratch) const
{
    WallTimer t;
    const auto pl = cq_->probe(query, nprobe);
    if (bd)
        bd->cqSeconds += t.elapsed();
    return searchClusters(query, k, pl.clusters, bd, scratch);
}

std::vector<SearchHit>
IvfPqFastScanIndex::searchClusters(const float *query, std::size_t k,
                                   std::span<const cluster_id_t> clusters,
                                   SearchBreakdown *bd,
                                   SearchScratch *scratch) const
{
    SearchScratch local;
    SearchScratch &sc = scratch ? *scratch : local;

    WallTimer t;
    const QuantizedLut qlut = buildQuantizedLut(pq_, query, sc);
    if (bd)
        bd->lutBuildSeconds += t.elapsed();

    t.reset();
    TopK topk(k);
    scanClusters(qlut, clusters, sc, topk);
    if (bd)
        bd->scanSeconds += t.elapsed();
    return topk.sortedHits();
}

void
IvfPqFastScanIndex::scanClusters(const QuantizedLut &qlut,
                                 std::span<const cluster_id_t> clusters,
                                 SearchScratch &scratch, TopK &topk) const
{
    const std::size_t m = pq_.numSub();
    for (const cluster_id_t c : clusters) {
        const auto ci = static_cast<std::size_t>(c);
        assert(ci < ids_.size());
        const auto &list_ids = ids_[ci];
        if (!list_ids.empty())
            scanPackedList(m, list_ids.data(), list_ids.size(),
                           packed_[ci].data(), qlut, scratch, topk);
    }
}

std::vector<std::vector<SearchHit>>
IvfPqFastScanIndex::searchBatch(std::span<const float> queries,
                                std::size_t nq, std::size_t k,
                                std::size_t nprobe,
                                SearchBreakdown *bd) const
{
    const std::size_t d = dim();
    assert(queries.size() >= nq * d);
    SearchScratch scratch;
    std::vector<std::vector<SearchHit>> out(nq);
    for (std::size_t i = 0; i < nq; ++i)
        out[i] = search(queries.data() + i * d, k, nprobe, bd, &scratch);
    return out;
}

IvfPqFastScanIndex
IvfPqFastScanIndex::fromParts(std::shared_ptr<const FlatCoarseQuantizer> cq,
                              ProductQuantizer pq,
                              std::vector<std::vector<idx_t>> ids,
                              std::vector<std::vector<std::uint8_t>> packed)
{
    if (!pq.isTrained())
        fatal("IvfPqFastScanIndex::fromParts: quantizer is not trained");
    if (pq.nbits() != 4)
        fatal("IvfPqFastScanIndex::fromParts: fast scan needs a 4-bit "
              "PQ, got nbits = " +
              std::to_string(pq.nbits()));
    if (pq.dim() != cq->dim())
        fatal("IvfPqFastScanIndex::fromParts: PQ/CQ dimension mismatch");
    if (ids.size() != cq->nlist() || packed.size() != cq->nlist())
        fatal("IvfPqFastScanIndex::fromParts: list count != nlist");
    const std::size_t m = pq.numSub();
    const std::size_t bb = packedBlockBytes(m);
    IvfPqFastScanIndex out(std::move(cq), m);
    out.pq_ = std::move(pq);
    std::size_t total = 0;
    for (std::size_t c = 0; c < ids.size(); ++c) {
        const std::size_t n = ids[c].size();
        const std::size_t nblocks =
            (n + kFastScanBlock - 1) / kFastScanBlock;
        if (packed[c].size() != nblocks * bb)
            fatal("IvfPqFastScanIndex::fromParts: packed bytes of "
                  "cluster " +
                  std::to_string(c) + " do not match its id count");
        total += n;
    }
    out.ids_ = std::move(ids);
    out.packed_ = std::move(packed);
    out.total_ = total;
    return out;
}

std::span<const idx_t>
IvfPqFastScanIndex::listIds(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < ids_.size());
    return ids_[static_cast<std::size_t>(c)];
}

std::span<const std::uint8_t>
IvfPqFastScanIndex::listPacked(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < packed_.size());
    return packed_[static_cast<std::size_t>(c)];
}

std::size_t
IvfPqFastScanIndex::listSize(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < ids_.size());
    return ids_[static_cast<std::size_t>(c)].size();
}

std::vector<std::size_t>
IvfPqFastScanIndex::listSizes() const
{
    std::vector<std::size_t> out(ids_.size());
    for (std::size_t c = 0; c < ids_.size(); ++c)
        out[c] = ids_[c].size();
    return out;
}

std::size_t
IvfPqFastScanIndex::listBytes(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < ids_.size());
    const auto ci = static_cast<std::size_t>(c);
    return ids_[ci].size() * sizeof(idx_t) + packed_[ci].size();
}

std::size_t
IvfPqFastScanIndex::memoryBytes() const
{
    std::size_t bytes = 0;
    for (std::size_t c = 0; c < ids_.size(); ++c) {
        bytes += ids_[c].size() * sizeof(idx_t);
        bytes += packed_[c].size();
    }
    return bytes;
}

} // namespace vlr::vs
