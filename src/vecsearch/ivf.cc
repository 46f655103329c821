#include "vecsearch/ivf.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#ifdef VLR_USE_AVX2
#include <immintrin.h>
#endif

#include "common/log.h"
#include "vecsearch/kmeans.h"

namespace vlr::vs
{

namespace
{

/** Centroids per group; each group's nearest seeds the probe's top-k. */
constexpr std::size_t kProbeGroup = 16;

/**
 * Lane of the smallest of the @p n (<= 16) distances at @p d. A NaN
 * can hide the smallest; any lane is returned then.
 */
std::size_t
groupMin(const float *d, std::size_t n)
{
#ifdef VLR_USE_AVX2
    if (n == kProbeGroup) {
        const __m256 lo = _mm256_loadu_ps(d);
        const __m256 hi = _mm256_loadu_ps(d + 8);
        // Fold the 16 lanes to their minimum, broadcast to all 8.
        __m256 m = _mm256_min_ps(lo, hi);
        m = _mm256_min_ps(m, _mm256_permute2f128_ps(m, m, 1));
        m = _mm256_min_ps(m, _mm256_permute_ps(m, 0x4E));
        m = _mm256_min_ps(m, _mm256_permute_ps(m, 0xB1));
        const auto eq = [&](__m256 v) {
            return static_cast<std::uint32_t>(
                _mm256_movemask_ps(_mm256_cmp_ps(v, m, _CMP_EQ_OQ)));
        };
        // Under NaN no lane may equal the fold, and ctz(0) is undefined.
        const std::uint32_t mask = eq(lo) | eq(hi) << 8;
        return mask != 0 ? static_cast<std::size_t>(std::countr_zero(mask))
                         : 0;
    }
#endif
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j)
        if (d[j] < d[best])
            best = j;
    return best;
}

/**
 * Mask of the @p n (<= 16) distances at @p d that are <= @p bound:
 * bit j for lane j. NaN lanes are never set.
 */
std::uint32_t
lanesAtMost(const float *d, std::size_t n, float bound)
{
#ifdef VLR_USE_AVX2
    if (n == kProbeGroup) {
        const __m256 b = _mm256_set1_ps(bound);
        const auto le = [&](std::size_t o) {
            return static_cast<std::uint32_t>(_mm256_movemask_ps(
                _mm256_cmp_ps(_mm256_loadu_ps(d + o), b, _CMP_LE_OQ)));
        };
        return le(0) | le(8) << 8;
    }
#endif
    std::uint32_t mask = 0;
    for (std::size_t j = 0; j < n; ++j)
        mask |= static_cast<std::uint32_t>(d[j] <= bound) << j;
    return mask;
}

} // namespace

FlatCoarseQuantizer::FlatCoarseQuantizer(std::vector<float> centroids,
                                         std::size_t nlist, std::size_t dim,
                                         Metric metric)
    : centroids_(std::move(centroids)), nlist_(nlist), dim_(dim),
      metric_(metric)
{
    if (centroids_.size() != nlist_ * dim_)
        fatal("FlatCoarseQuantizer: centroid matrix shape mismatch");
}

ProbeList
FlatCoarseQuantizer::probe(const float *query, std::size_t nprobe) const
{
    nprobe = std::min(nprobe, nlist_);
    std::vector<float> dist(nlist_);
    distancesToMany(metric_, query, centroids_.data(), nlist_, dim_,
                    dist.data());

    // Seed the top-k with each group's nearest centroid, so its bound is
    // tight before the full pass below.
    TopK topk(nprobe);
    const std::size_t ngroups = (nlist_ + kProbeGroup - 1) / kProbeGroup;
    std::vector<std::uint8_t> seed(ngroups);
    for (std::size_t g = 0; g < ngroups; ++g) {
        const std::size_t base = g * kProbeGroup;
        const std::size_t n = std::min(kProbeGroup, nlist_ - base);
        seed[g] = static_cast<std::uint8_t>(groupMin(dist.data() + base, n));
        const std::size_t c = base + seed[g];
        topk.push(static_cast<idx_t>(c), dist[c]);
    }
    // Offer every other centroid once. Until topk is full each is
    // pushed: worst() is float max then, and an +inf distance would fail
    // the compare. Once full, worst() only falls, so a lane above it now
    // is one push() would reject at any point of the pass.
    for (std::size_t g = 0; g < ngroups; ++g) {
        const std::size_t base = g * kProbeGroup;
        const std::size_t n = std::min(kProbeGroup, nlist_ - base);
        std::uint32_t mask =
            topk.full() ? lanesAtMost(dist.data() + base, n, topk.worst())
                        : ~0u >> (32 - n);
        mask &= ~(1u << seed[g]);
        for (; mask != 0; mask &= mask - 1) {
            const std::size_t c =
                base + static_cast<std::size_t>(std::countr_zero(mask));
            topk.push(static_cast<idx_t>(c), dist[c]);
        }
    }

    ProbeList out;
    out.clusters.reserve(nprobe);
    out.dists.reserve(nprobe);
    for (const auto &h : topk.sortedHits()) {
        out.clusters.push_back(static_cast<cluster_id_t>(h.id));
        out.dists.push_back(h.dist);
    }
    return out;
}

const float *
FlatCoarseQuantizer::centroid(cluster_id_t c) const
{
    assert(c >= 0 && static_cast<std::size_t>(c) < nlist_);
    return centroids_.data() + static_cast<std::size_t>(c) * dim_;
}

} // namespace vlr::vs
