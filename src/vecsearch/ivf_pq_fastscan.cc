#include "vecsearch/ivf_pq_fastscan.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#ifdef VLR_USE_AVX2
#include <immintrin.h>
#endif

#include "common/log.h"
#include "common/timer.h"

namespace vlr::vs
{

namespace
{

/** Lanes tested against the k-th best at once. */
constexpr std::size_t kBoundGroup = 16;

/**
 * Mask of the 16 scores at @p s that are <= @p bound, none when it is
 * negative: bit 2j is set for lane j (movemask's two bits per uint16
 * lane, low bit kept).
 */
std::uint32_t
lanesAtMost(const std::uint16_t *s, int bound)
{
    if (bound < 0)
        return 0;
#ifdef VLR_USE_AVX2
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(s));
    const __m256i b = _mm256_set1_epi16(static_cast<short>(bound));
    const __m256i le = _mm256_cmpeq_epi16(_mm256_min_epu16(v, b), v);
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(le)) &
           0x55555555u;
#else
    std::uint32_t mask = 0;
    for (std::size_t j = 0; j < kBoundGroup; ++j)
        mask |= static_cast<std::uint32_t>(s[j] <= bound) << (2 * j);
    return mask;
#endif
}

/**
 * Mask, in lanesAtMost's layout, of the first @p n (<= 16) ids at
 * @p id that are below @p wid. Only those n ids are read.
 */
std::uint32_t
idsBelow(const idx_t *id, std::size_t n, idx_t wid)
{
#ifdef VLR_USE_AVX2
    if (n == kBoundGroup) {
        const __m256i w = _mm256_set1_epi64x(wid);
        const auto lt = [&](std::size_t o) {
            return _mm256_cmpgt_epi64(
                w, _mm256_loadu_si256(
                       reinterpret_cast<const __m256i *>(id + o)));
        };
        // Narrow the four 64-bit lane masks to one 16-bit lane each.
        // The packs interleave 128-bit halves, so lanes come out in
        // the order 0 1 4 5 8 9 12 13 2 3 6 7 ...; the permute of
        // 32-bit pairs restores 0..15.
        const __m256i packed = _mm256_packs_epi16(
            _mm256_packs_epi32(lt(0), lt(4)),
            _mm256_packs_epi32(lt(8), lt(12)));
        const __m256i lanes = _mm256_permutevar8x32_epi32(
            packed, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
        return static_cast<std::uint32_t>(_mm256_movemask_epi8(lanes)) &
               0x55555555u;
    }
#endif
    std::uint32_t mask = 0;
    for (std::size_t j = 0; j < n; ++j)
        mask |= static_cast<std::uint32_t>(id[j] < wid) << (2 * j);
    return mask;
}

/**
 * The k-th best hit (wd, wid) of a full TopK as score thresholds:
 * bound is the largest score whose distance is <= wd and below the
 * largest whose distance is < wd, each -1 when no score qualifies.
 */
struct KthBest
{
    int bound;
    int below;
    idx_t wid;
};

KthBest
kthBest(const QuantizedLut &qlut, const TopK &topk)
{
    const float wd = topk.worst();
    return {qlut.scoreBound(wd),
            qlut.scoreBound(std::nextafter(
                wd, -std::numeric_limits<float>::infinity())),
            topk.worstId()};
}

} // namespace

void
scanPackedList(std::size_t m, const idx_t *ids, std::size_t count,
               const std::uint8_t *packed, const QuantizedLut &qlut,
               SearchScratch &sc, TopK &topk)
{
    const std::size_t nblocks =
        (count + kFastScanBlock - 1) / kFastScanBlock;
    if (sc.scores.size() < nblocks * kFastScanBlock)
        sc.scores.resize(nblocks * kFastScanBlock);
    scanPq4Blocks(m, packed, nblocks, qlut, sc.scores.data());
    const std::uint16_t *scores = sc.scores.data();

    std::size_t i = 0;
    for (; i < count && !topk.full(); ++i)
        topk.push(ids[i], qlut.distance(scores[i]));
    if (i == count)
        return;

    // topk is full: a lane can enter only if it scores at most the
    // bound. Groups start on a multiple of 16, so every score load
    // stays inside the whole blocks scored above.
    KthBest kth = kthBest(qlut, topk);
    if (kth.bound < 0)
        return;
    std::size_t g = i / kBoundGroup * kBoundGroup;
    const std::size_t last = (count - 1) / kBoundGroup * kBoundGroup;
    // Lanes before i were pushed above; lanes from count on are padding.
    std::uint32_t keep = ~0u << (2 * (i - g));
    const std::uint32_t tail = ~0u >> (2 * (last + kBoundGroup - count));
    for (; g <= last; g += kBoundGroup, keep = ~0u) {
        std::uint32_t mask = lanesAtMost(scores + g, kth.bound) & keep;
        if (mask == 0)
            continue;
        if (g == last)
            mask &= tail;
        // Lanes in the tie band (below, bound] enter only with an id
        // below wid.
        const std::uint32_t closer = lanesAtMost(scores + g, kth.below);
        if ((mask & ~closer) != 0)
            mask &= closer | idsBelow(ids + g,
                                      std::min(kBoundGroup, count - g),
                                      kth.wid);
        for (; mask != 0; mask &= mask - 1) {
            const std::size_t j =
                g + static_cast<std::size_t>(std::countr_zero(mask)) / 2;
            // Each push tightens the k-th best past lanes masked with
            // the previous one; accepts() settles them exactly.
            const float dist = qlut.distance(scores[j]);
            if (!topk.accepts(ids[j], dist))
                continue;
            topk.push(ids[j], dist);
            kth = kthBest(qlut, topk);
            if (kth.bound < 0)
                return;
        }
    }
}

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

std::vector<std::vector<SearchHit>>
IvfPqFastScanIndex::searchBatchParallel(std::span<const float> queries,
                                        std::size_t nq, std::size_t k,
                                        std::size_t nprobe,
                                        ThreadPool &pool,
                                        SearchBreakdown *bd) const
{
    const std::vector<std::size_t> nprobes(nq, nprobe);
    return searchBatchParallel(queries, nq, k, nprobes, pool, bd);
}

std::vector<std::vector<SearchHit>>
IvfPqFastScanIndex::searchBatchParallel(
    std::span<const float> queries, std::size_t nq, std::size_t k,
    std::span<const std::size_t> nprobes, ThreadPool &pool,
    SearchBreakdown *bd) const
{
    const std::size_t d = dim();
    assert(queries.size() >= nq * d);
    assert(nprobes.size() >= nq);
    std::vector<std::vector<SearchHit>> out(nq);
    std::vector<SearchBreakdown> bds(bd ? nq : 0);
    pool.parallelForDynamic(nq, 1, [&](std::size_t i) {
        // One scratch per OS thread, reused across queries and batches.
        static thread_local SearchScratch scratch;
        out[i] = search(queries.data() + i * d, k, nprobes[i],
                        bd ? &bds[i] : nullptr, &scratch);
    });
    if (bd)
        for (const auto &b : bds)
            bd->accumulate(b);
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
