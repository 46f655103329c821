#include "vecsearch/ivf_pq.h"

#include <cassert>

#include "common/timer.h"

namespace vlr::vs
{

IvfPqIndex::IvfPqIndex(std::shared_ptr<const FlatCoarseQuantizer> cq,
                       std::size_t m, std::size_t nbits, bool by_residual)
    : cq_(std::move(cq)), pq_(cq_->dim(), m, nbits), byResidual_(by_residual)
{
    ids_.resize(cq_->nlist());
    codes_.resize(cq_->nlist());
}

void
IvfPqIndex::train(std::span<const float> data, std::size_t n,
                  const KMeansParams &params)
{
    if (!byResidual_) {
        pq_.train(data, n, params);
        return;
    }
    // Train on residuals relative to each vector's nearest centroid.
    const std::size_t d = dim();
    std::vector<float> residuals(n * d);
    for (std::size_t i = 0; i < n; ++i) {
        const float *x = data.data() + i * d;
        const auto pl = cq_->probe(x, 1);
        const float *c = cq_->centroid(pl.clusters[0]);
        for (std::size_t j = 0; j < d; ++j)
            residuals[i * d + j] = x[j] - c[j];
    }
    pq_.train(residuals, n, params);
}

void
IvfPqIndex::add(std::span<const float> vecs, std::size_t n)
{
    const std::size_t d = dim();
    assert(vecs.size() >= n * d);
    std::vector<std::int32_t> assign(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto pl = cq_->probe(vecs.data() + i * d, 1);
        assign[i] = pl.clusters[0];
    }
    addPreassigned(vecs, n, assign);
}

void
IvfPqIndex::addPreassigned(std::span<const float> vecs, std::size_t n,
                           std::span<const std::int32_t> assign)
{
    const std::size_t d = dim();
    const std::size_t cs = pq_.codeSize();
    assert(vecs.size() >= n * d);
    assert(assign.size() >= n);
    std::vector<float> residual(d);
    std::vector<std::uint8_t> code(cs);
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::size_t>(assign[i]);
        assert(c < ids_.size());
        const float *x = vecs.data() + i * d;
        if (byResidual_) {
            const float *cent = cq_->centroid(assign[i]);
            for (std::size_t j = 0; j < d; ++j)
                residual[j] = x[j] - cent[j];
            pq_.encode(residual.data(), code.data());
        } else {
            pq_.encode(x, code.data());
        }
        ids_[c].push_back(static_cast<idx_t>(total_ + i));
        codes_[c].insert(codes_[c].end(), code.begin(), code.end());
    }
    total_ += n;
}

void
IvfPqIndex::scanList(cluster_id_t c, const float *lut, TopK &topk) const
{
    const auto ci = static_cast<std::size_t>(c);
    const auto &list_ids = ids_[ci];
    const std::uint8_t *base = codes_[ci].data();
    const std::size_t cs = pq_.codeSize();
    for (std::size_t i = 0; i < list_ids.size(); ++i) {
        const float dist = pq_.adcDistance(lut, base + i * cs);
        topk.push(list_ids[i], dist);
    }
}

std::vector<SearchHit>
IvfPqIndex::search(const float *query, std::size_t k, std::size_t nprobe,
                   SearchBreakdown *bd) const
{
    WallTimer t;
    const auto pl = cq_->probe(query, nprobe);
    if (bd)
        bd->cqSeconds += t.elapsed();
    return searchClusters(query, k, pl.clusters, bd);
}

std::vector<SearchHit>
IvfPqIndex::searchClusters(const float *query, std::size_t k,
                           std::span<const cluster_id_t> clusters,
                           SearchBreakdown *bd) const
{
    const std::size_t d = dim();
    TopK topk(k);
    std::vector<float> lut(pq_.lutSize());
    std::vector<float> residual(d);

    if (!byResidual_) {
        WallTimer t;
        pq_.computeLut(query, lut.data());
        if (bd)
            bd->lutBuildSeconds += t.elapsed();
        t.reset();
        for (const cluster_id_t c : clusters)
            scanList(c, lut.data(), topk);
        if (bd)
            bd->scanSeconds += t.elapsed();
        return topk.sortedHits();
    }

    for (const cluster_id_t c : clusters) {
        WallTimer t;
        const float *cent = cq_->centroid(c);
        for (std::size_t j = 0; j < d; ++j)
            residual[j] = query[j] - cent[j];
        pq_.computeLut(residual.data(), lut.data());
        if (bd)
            bd->lutBuildSeconds += t.elapsed();
        t.reset();
        scanList(c, lut.data(), topk);
        if (bd)
            bd->scanSeconds += t.elapsed();
    }
    return topk.sortedHits();
}

std::vector<std::vector<SearchHit>>
IvfPqIndex::searchBatch(std::span<const float> queries, std::size_t nq,
                        std::size_t k, std::size_t nprobe,
                        SearchBreakdown *bd) const
{
    const std::size_t d = dim();
    assert(queries.size() >= nq * d);
    std::vector<std::vector<SearchHit>> out(nq);
    for (std::size_t i = 0; i < nq; ++i)
        out[i] = search(queries.data() + i * d, k, nprobe, bd);
    return out;
}

std::size_t
IvfPqIndex::listSize(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < ids_.size());
    return ids_[static_cast<std::size_t>(c)].size();
}

std::vector<std::size_t>
IvfPqIndex::listSizes() const
{
    std::vector<std::size_t> out(ids_.size());
    for (std::size_t c = 0; c < ids_.size(); ++c)
        out[c] = ids_[c].size();
    return out;
}

const std::vector<idx_t> &
IvfPqIndex::listIds(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < ids_.size());
    return ids_[static_cast<std::size_t>(c)];
}

const std::vector<std::uint8_t> &
IvfPqIndex::listCodes(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < codes_.size());
    return codes_[static_cast<std::size_t>(c)];
}

std::size_t
IvfPqIndex::memoryBytes() const
{
    std::size_t bytes = 0;
    for (std::size_t c = 0; c < ids_.size(); ++c) {
        bytes += ids_[c].size() * sizeof(idx_t);
        bytes += codes_[c].size();
    }
    return bytes;
}

} // namespace vlr::vs
