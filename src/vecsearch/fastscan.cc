#include "vecsearch/fastscan.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#ifdef VLR_USE_AVX2
#include <immintrin.h>
#endif

namespace vlr::vs
{

int
QuantizedLut::scoreBound(float dist) const
{
    constexpr int kTop = std::numeric_limits<std::uint16_t>::max();
    if (!std::isfinite(bias) || !std::isfinite(step) || step < 0.f)
        return kTop;
    const auto fits = [&](int s) {
        return distance(static_cast<std::uint16_t>(s)) <= dist;
    };

    // Fast path: dist is usually the distance of the heap's worst score
    // g, or falls between those of g and g + 1. The inverse map rounded
    // to nearest lands on g or g + 1; two fits() calls confirm it.
    const float inverse = (dist - bias) / step;
    if (inverse >= 0.f && inverse <= static_cast<float>(kTop)) {
        const int g = static_cast<int>(inverse + 0.5f);
        if (fits(g)) {
            if (g == kTop || !fits(g + 1))
                return g;
        } else if (g > 0 && fits(g - 1)) {
            return g - 1;
        }
    }

    // Otherwise dist is outside the score range, or float spacing at
    // dist is coarser than step so that a run of scores shares one
    // distance: bisect for the last score that fits.
    if (!fits(0))
        return -1;
    if (fits(kTop))
        return kTop;
    int lo = 0, hi = kTop; // invariant: fits(lo) && !fits(hi)
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        if (fits(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

std::size_t
packedBlockBytes(std::size_t m)
{
    return m * (kFastScanBlock / 2);
}

std::vector<std::uint8_t>
packPq4Codes(std::size_t m, std::span<const std::uint8_t> codes,
             std::size_t n)
{
    assert(codes.size() >= n * m);
    const std::size_t nblocks =
        (n + kFastScanBlock - 1) / kFastScanBlock;
    std::vector<std::uint8_t> packed(nblocks * packedBlockBytes(m), 0);

    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t block = i / kFastScanBlock;
        const std::size_t lane = i % kFastScanBlock;
        std::uint8_t *bp = packed.data() + block * packedBlockBytes(m);
        for (std::size_t s = 0; s < m; ++s) {
            const std::uint8_t code = codes[i * m + s];
            assert(code < 16);
            std::uint8_t &slot = bp[s * 16 + (lane % 16)];
            if (lane < 16)
                slot = static_cast<std::uint8_t>((slot & 0xF0) | code);
            else
                slot = static_cast<std::uint8_t>((slot & 0x0F) | (code << 4));
        }
    }
    return packed;
}

void
appendPq4Codes(std::size_t m, std::vector<std::uint8_t> &packed,
               std::size_t n_old, std::span<const std::uint8_t> codes,
               std::size_t n_new)
{
    assert(codes.size() >= n_new * m);
    const std::size_t bb = packedBlockBytes(m);
    assert(packed.size() ==
           (n_old + kFastScanBlock - 1) / kFastScanBlock * bb);
    const std::size_t nblocks =
        (n_old + n_new + kFastScanBlock - 1) / kFastScanBlock;
    packed.resize(nblocks * bb, 0);

    for (std::size_t i = 0; i < n_new; ++i) {
        const std::size_t pos = n_old + i;
        const std::size_t block = pos / kFastScanBlock;
        const std::size_t lane = pos % kFastScanBlock;
        std::uint8_t *bp = packed.data() + block * bb;
        for (std::size_t s = 0; s < m; ++s) {
            const std::uint8_t code = codes[i * m + s];
            assert(code < 16);
            std::uint8_t &slot = bp[s * 16 + (lane % 16)];
            if (lane < 16)
                slot = static_cast<std::uint8_t>((slot & 0xF0) | code);
            else
                slot = static_cast<std::uint8_t>((slot & 0x0F) |
                                                 (code << 4));
        }
    }
}

QuantizedLut
quantizeLut(std::size_t m, std::span<const float> lut)
{
    assert(lut.size() >= m * 16);
    QuantizedLut q;
    q.table.resize(m * 16);

    float bias = 0.f;
    float max_delta = 0.f;
    for (std::size_t s = 0; s < m; ++s) {
        const float *row = lut.data() + s * 16;
        float row_min = row[0], row_max = row[0];
        for (std::size_t j = 1; j < 16; ++j) {
            row_min = std::min(row_min, row[j]);
            row_max = std::max(row_max, row[j]);
        }
        bias += row_min;
        max_delta = std::max(max_delta, row_max - row_min);
    }
    q.bias = bias;
    q.step = max_delta > 0.f ? max_delta / 255.f : 1.f;
    const float inv_step = 1.f / q.step;

    for (std::size_t s = 0; s < m; ++s) {
        const float *row = lut.data() + s * 16;
        float row_min = row[0];
        for (std::size_t j = 1; j < 16; ++j)
            row_min = std::min(row_min, row[j]);
        for (std::size_t j = 0; j < 16; ++j) {
            const float t = (row[j] - row_min) * inv_step;
            q.table[s * 16 + j] = static_cast<std::uint8_t>(
                std::clamp(std::lround(t), 0L, 255L));
        }
    }
    return q;
}

void
scanPq4BlocksScalar(std::size_t m, const std::uint8_t *packed,
                    std::size_t nblocks, const QuantizedLut &lut,
                    std::uint16_t *out)
{
    const std::size_t bb = packedBlockBytes(m);
    for (std::size_t b = 0; b < nblocks; ++b) {
        const std::uint8_t *bp = packed + b * bb;
        std::uint16_t *res = out + b * kFastScanBlock;
        std::fill_n(res, kFastScanBlock, 0);
        for (std::size_t s = 0; s < m; ++s) {
            const std::uint8_t *row = lut.table.data() + s * 16;
            const std::uint8_t *cp = bp + s * 16;
            for (std::size_t j = 0; j < 16; ++j) {
                const std::uint8_t byte = cp[j];
                res[j] = static_cast<std::uint16_t>(
                    res[j] + row[byte & 0x0F]);
                res[j + 16] = static_cast<std::uint16_t>(
                    res[j + 16] + row[byte >> 4]);
            }
        }
    }
}

namespace
{

/** Lanes the scalar and AVX2 list scans test against the k-th best at once. */
constexpr std::size_t kBoundGroup = 16;

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

/**
 * The scalar kernel of scanListByGroups. Masks set bit 2j for lane j of
 * a 16-lane group: the layout of AVX2's byte movemask of uint16 lanes.
 */
struct ScalarGroups
{
    static void
    score(std::size_t m, const std::uint8_t *packed, std::size_t nblocks,
          const QuantizedLut &lut, std::uint16_t *out)
    {
        scanPq4BlocksScalar(m, packed, nblocks, lut, out);
    }

    /** Mask of the 16 scores at @p s that are <= @p bound (>= 0). */
    static std::uint32_t
    lanesAtMost(const std::uint16_t *s, int bound)
    {
        std::uint32_t mask = 0;
        for (std::size_t j = 0; j < kBoundGroup; ++j)
            mask |= static_cast<std::uint32_t>(s[j] <= bound) << (2 * j);
        return mask;
    }

    /**
     * Mask of the first @p n (<= 16) ids at @p id that are below
     * @p wid. Only those n ids are read.
     */
    static std::uint32_t
    idsBelow(const idx_t *id, std::size_t n, idx_t wid)
    {
        std::uint32_t mask = 0;
        for (std::size_t j = 0; j < n; ++j)
            mask |= static_cast<std::uint32_t>(id[j] < wid) << (2 * j);
        return mask;
    }
};

#ifdef VLR_USE_AVX2

void
scanPq4BlocksAvx2(std::size_t m, const std::uint8_t *packed,
                  std::size_t nblocks, const QuantizedLut &lut,
                  std::uint16_t *out)
{
    const std::size_t bb = packedBlockBytes(m);
    const __m256i low_mask = _mm256_set1_epi8(0x0F);
    const __m256i zero = _mm256_setzero_si256();

    for (std::size_t b = 0; b < nblocks; ++b) {
        const std::uint8_t *bp = packed + b * bb;
        // acc0 holds vectors 0..7 and 16..23; acc1 holds 8..15 and 24..31
        // (a consequence of 256-bit unpack operating per 128-bit lane).
        __m256i acc0 = zero;
        __m256i acc1 = zero;

        for (std::size_t s = 0; s < m; ++s) {
            const __m128i raw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(bp + s * 16));
            const __m128i lut128 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(lut.table.data() + s * 16));
            const __m256i lut256 = _mm256_broadcastsi128_si256(lut128);

            const __m128i lo16 = raw;                       // low nibbles
            const __m128i hi16 = _mm_srli_epi16(raw, 4);    // high nibbles
            __m256i idx = _mm256_set_m128i(hi16, lo16);
            idx = _mm256_and_si256(idx, low_mask);

            const __m256i vals = _mm256_shuffle_epi8(lut256, idx);
            acc0 = _mm256_add_epi16(acc0, _mm256_unpacklo_epi8(vals, zero));
            acc1 = _mm256_add_epi16(acc1, _mm256_unpackhi_epi8(vals, zero));
        }

        alignas(32) std::uint16_t tmp0[16];
        alignas(32) std::uint16_t tmp1[16];
        _mm256_store_si256(reinterpret_cast<__m256i *>(tmp0), acc0);
        _mm256_store_si256(reinterpret_cast<__m256i *>(tmp1), acc1);

        std::uint16_t *res = out + b * kFastScanBlock;
        // Undo the unpack interleave: tmp0 = v0..7 | v16..23,
        // tmp1 = v8..15 | v24..31.
        for (std::size_t i = 0; i < 8; ++i) {
            res[i] = tmp0[i];
            res[16 + i] = tmp0[8 + i];
            res[8 + i] = tmp1[i];
            res[24 + i] = tmp1[8 + i];
        }
    }
}

/** The AVX2 kernel of scanListByGroups, in ScalarGroups' mask layout. */
struct Avx2Groups
{
    static void
    score(std::size_t m, const std::uint8_t *packed, std::size_t nblocks,
          const QuantizedLut &lut, std::uint16_t *out)
    {
        scanPq4BlocksAvx2(m, packed, nblocks, lut, out);
    }

    static std::uint32_t
    lanesAtMost(const std::uint16_t *s, int bound)
    {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(s));
        const __m256i b = _mm256_set1_epi16(static_cast<short>(bound));
        const __m256i le = _mm256_cmpeq_epi16(_mm256_min_epu16(v, b), v);
        return static_cast<std::uint32_t>(_mm256_movemask_epi8(le)) &
               0x55555555u;
    }

    static std::uint32_t
    idsBelow(const idx_t *id, std::size_t n, idx_t wid)
    {
        if (n < kBoundGroup)
            return ScalarGroups::idsBelow(id, n, wid);
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
};

// The AVX-512BW kernel. Its functions carry their own target, so the
// AVX2 build holds it and a CPU check picks it at run time. They hold
// no lambdas: a lambda's body would not inherit the target.
#define VLR_AVX512BW __attribute__((target("avx512f,avx512bw")))

/**
 * Add sub-quantizers s..s+3 of a block to the four accumulators.
 * @p codes holds their code bytes and @p rows their LUT rows, one
 * sub-quantizer per 128-bit lane, so each lane's byte shuffle looks up
 * its own row. acc0 and acc1 take the low nibbles (vectors 0..7 and
 * 8..15), acc2 and acc3 the high ones (16..23 and 24..31), each lane
 * summing the sub-quantizers of its position mod 4.
 */
VLR_AVX512BW inline void
addFourSubQuantizers(__m512i codes, __m512i rows, __m512i &acc0,
                     __m512i &acc1, __m512i &acc2, __m512i &acc3)
{
    const __m512i nibble = _mm512_set1_epi8(0x0F);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i lo =
        _mm512_shuffle_epi8(rows, _mm512_and_si512(codes, nibble));
    const __m512i hi = _mm512_shuffle_epi8(
        rows, _mm512_and_si512(_mm512_srli_epi16(codes, 4), nibble));
    acc0 = _mm512_add_epi16(acc0, _mm512_unpacklo_epi8(lo, zero));
    acc1 = _mm512_add_epi16(acc1, _mm512_unpackhi_epi8(lo, zero));
    acc2 = _mm512_add_epi16(acc2, _mm512_unpacklo_epi8(hi, zero));
    acc3 = _mm512_add_epi16(acc3, _mm512_unpackhi_epi8(hi, zero));
}

/**
 * One block's 32 scores in lane order: the four 128-bit lanes of each
 * accumulator summed, as a 4x4 transpose of 128-bit lanes done by
 * shuffles and adds. uint16 adds wrap, so any summation order gives
 * the scalar kernel's integers. The all-ones zero-masking shuffle is
 * the plain instruction; GCC 12 flags the unmasked intrinsic's
 * undefined merge source with -Wmaybe-uninitialized.
 */
VLR_AVX512BW inline __m512i
sumLanes(__m512i acc0, __m512i acc1, __m512i acc2, __m512i acc3)
{
    constexpr __mmask8 kAll = 0xFF;
    // Lanes (x0 + x2, x1 + x3, y0 + y2, y1 + y3) of accumulators x, y.
    const __m512i lo01 = _mm512_add_epi16(
        _mm512_maskz_shuffle_i64x2(kAll, acc0, acc1, _MM_SHUFFLE(1, 0, 1, 0)),
        _mm512_maskz_shuffle_i64x2(kAll, acc0, acc1,
                                   _MM_SHUFFLE(3, 2, 3, 2)));
    const __m512i hi23 = _mm512_add_epi16(
        _mm512_maskz_shuffle_i64x2(kAll, acc2, acc3, _MM_SHUFFLE(1, 0, 1, 0)),
        _mm512_maskz_shuffle_i64x2(kAll, acc2, acc3,
                                   _MM_SHUFFLE(3, 2, 3, 2)));
    return _mm512_add_epi16(
        _mm512_maskz_shuffle_i64x2(kAll, lo01, hi23, _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_maskz_shuffle_i64x2(kAll, lo01, hi23,
                                   _MM_SHUFFLE(3, 1, 3, 1)));
}

/** Scores of the block at @p block under the m rows at @p lut. */
VLR_AVX512BW inline __m512i
scoreBlockAvx512(std::size_t m, const std::uint8_t *block,
                 const std::uint8_t *lut)
{
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = acc0, acc2 = acc0, acc3 = acc0;
    std::size_t s = 0;
    for (; s + 4 <= m; s += 4)
        addFourSubQuantizers(_mm512_loadu_si512(block + s * 16),
                             _mm512_loadu_si512(lut + s * 16), acc0, acc1,
                             acc2, acc3);
    if (s < m) {
        // The m mod 4 tail: zero-masked loads read only its rows, and
        // the zeroed LUT lanes add nothing.
        const __mmask64 rows = ~std::uint64_t{0} >> (64 - 16 * (m - s));
        addFourSubQuantizers(_mm512_maskz_loadu_epi8(rows, block + s * 16),
                             _mm512_maskz_loadu_epi8(rows, lut + s * 16),
                             acc0, acc1, acc2, acc3);
    }
    return sumLanes(acc0, acc1, acc2, acc3);
}

VLR_AVX512BW void
scanPq4BlocksAvx512(std::size_t m, const std::uint8_t *packed,
                    std::size_t nblocks, const QuantizedLut &lut,
                    std::uint16_t *out)
{
    const std::size_t bb = packedBlockBytes(m);
    for (std::size_t b = 0; b < nblocks; ++b)
        _mm512_storeu_si512(out + b * kFastScanBlock,
                            scoreBlockAvx512(m, packed + b * bb,
                                             lut.table.data()));
}

/**
 * Mask of the lanes in @p lanes whose id at @p id is below @p wid.
 * Only those lanes' ids are read.
 */
VLR_AVX512BW inline __mmask32
idsBelowAvx512(const idx_t *id, __mmask32 lanes, idx_t wid)
{
    const __m512i w = _mm512_set1_epi64(wid);
    __mmask32 below = 0;
    for (unsigned q = 0; q < 4; ++q) {
        const auto k = static_cast<__mmask8>(lanes >> (8 * q));
        const __m512i v = _mm512_maskz_loadu_epi64(k, id + 8 * q);
        below |= static_cast<__mmask32>(
                     _mm512_mask_cmplt_epi64_mask(k, v, w))
                 << (8 * q);
    }
    return below;
}

/** scanPackedList on the AVX-512BW kernel: one block at a time. */
VLR_AVX512BW void
scanListAvx512(std::size_t m, const idx_t *ids, std::size_t count,
               const std::uint8_t *packed, const QuantizedLut &qlut,
               TopK &topk)
{
    const std::size_t bb = packedBlockBytes(m);
    const std::size_t nblocks =
        (count + kFastScanBlock - 1) / kFastScanBlock;
    const std::uint8_t *lut = qlut.table.data();
    // Scores of the block being pushed from, stored only for pushes.
    alignas(64) std::uint16_t stored[kFastScanBlock];

    std::size_t i = 0;
    for (; i < count && !topk.full(); ++i) {
        if (i % kFastScanBlock == 0)
            _mm512_store_si512(
                stored, scoreBlockAvx512(
                            m, packed + i / kFastScanBlock * bb, lut));
        topk.push(ids[i], qlut.distance(stored[i % kFastScanBlock]));
    }
    if (i == count)
        return;

    // topk is full: a lane can enter only if it scores at most the
    // bound.
    KthBest kth = kthBest(qlut, topk);
    if (kth.bound < 0)
        return;
    __m512i bound = _mm512_set1_epi16(static_cast<short>(kth.bound));
    __m512i below = _mm512_set1_epi16(static_cast<short>(kth.below));
    // Lanes before i were pushed above; lanes from count on are padding.
    __mmask32 keep = ~0u << (i % kFastScanBlock);
    // A heap that filled mid-block leaves that block's scores in stored.
    bool scored = i % kFastScanBlock != 0;
    for (std::size_t b = i / kFastScanBlock; b < nblocks;
         ++b, keep = ~0u, scored = false) {
        const std::size_t base = b * kFastScanBlock;
        if (count - base < kFastScanBlock)
            keep &= ~0u >> (kFastScanBlock - (count - base));
        const __m512i scores =
            scored ? _mm512_load_si512(stored)
                   : scoreBlockAvx512(m, packed + b * bb, lut);
        __mmask32 mask = _mm512_mask_cmple_epu16_mask(keep, scores, bound);
        if (mask == 0)
            continue;
        // Lanes in the tie band (below, bound] enter only with an id
        // below wid.
        const __mmask32 closer =
            kth.below < 0 ? 0
                          : _mm512_mask_cmple_epu16_mask(mask, scores, below);
        if (mask != closer)
            mask = closer |
                   idsBelowAvx512(ids + base, mask & ~closer, kth.wid);
        if (mask == 0)
            continue;
        _mm512_store_si512(stored, scores);
        for (; mask != 0; mask &= mask - 1) {
            const auto j = static_cast<std::size_t>(std::countr_zero(mask));
            // Each push tightens the k-th best past lanes masked with
            // the previous one; accepts() settles them exactly.
            const float dist = qlut.distance(stored[j]);
            if (!topk.accepts(ids[base + j], dist))
                continue;
            topk.push(ids[base + j], dist);
            kth = kthBest(qlut, topk);
            if (kth.bound < 0)
                return;
            bound = _mm512_set1_epi16(static_cast<short>(kth.bound));
            below = _mm512_set1_epi16(static_cast<short>(kth.below));
        }
    }
}

#undef VLR_AVX512BW

#endif // VLR_USE_AVX2

/**
 * scanPackedList on a whole-list kernel: score every block into
 * sc.scores, then test 16-lane groups against the k-th best.
 */
template <typename Groups>
void
scanListByGroups(std::size_t m, const idx_t *ids, std::size_t count,
                 const std::uint8_t *packed, const QuantizedLut &qlut,
                 SearchScratch &sc, TopK &topk)
{
    const std::size_t nblocks =
        (count + kFastScanBlock - 1) / kFastScanBlock;
    if (sc.scores.size() < nblocks * kFastScanBlock)
        sc.scores.resize(nblocks * kFastScanBlock);
    Groups::score(m, packed, nblocks, qlut, sc.scores.data());
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
        std::uint32_t mask = Groups::lanesAtMost(scores + g, kth.bound) & keep;
        if (mask == 0)
            continue;
        if (g == last)
            mask &= tail;
        // Lanes in the tie band (below, bound] enter only with an id
        // below wid.
        const std::uint32_t closer =
            kth.below < 0 ? 0 : Groups::lanesAtMost(scores + g, kth.below);
        if ((mask & ~closer) != 0)
            mask &= closer | Groups::idsBelow(ids + g,
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

#ifndef NDEBUG
bool
hostRuns(FastScanKernel kernel)
{
    const auto kernels = fastScanKernels();
    return std::find(kernels.begin(), kernels.end(), kernel) !=
           kernels.end();
}
#endif

} // namespace

const char *
fastScanKernelName(FastScanKernel kernel)
{
    switch (kernel) {
    case FastScanKernel::Scalar:
        return "scalar";
    case FastScanKernel::Avx2:
        return "avx2";
    case FastScanKernel::Avx512bw:
        return "avx512bw";
    }
    return "unknown";
}

std::span<const FastScanKernel>
fastScanKernels()
{
    static const std::vector<FastScanKernel> kernels = [] {
        std::vector<FastScanKernel> k = {FastScanKernel::Scalar};
#ifdef VLR_USE_AVX2
        k.push_back(FastScanKernel::Avx2);
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512bw"))
            k.push_back(FastScanKernel::Avx512bw);
#endif
        return k;
    }();
    return kernels;
}

FastScanKernel
servingFastScanKernel()
{
    return fastScanKernels().back();
}

bool
fastScanHasSimd()
{
    return servingFastScanKernel() != FastScanKernel::Scalar;
}

void
scanPq4Blocks(std::size_t m, const std::uint8_t *packed,
              std::size_t nblocks, const QuantizedLut &lut,
              std::uint16_t *out)
{
    scanPq4Blocks(servingFastScanKernel(), m, packed, nblocks, lut, out);
}

void
scanPq4Blocks(FastScanKernel kernel, std::size_t m,
              const std::uint8_t *packed, std::size_t nblocks,
              const QuantizedLut &lut, std::uint16_t *out)
{
    assert(hostRuns(kernel));
    switch (kernel) {
#ifdef VLR_USE_AVX2
    case FastScanKernel::Avx512bw:
        scanPq4BlocksAvx512(m, packed, nblocks, lut, out);
        return;
    case FastScanKernel::Avx2:
        scanPq4BlocksAvx2(m, packed, nblocks, lut, out);
        return;
#endif
    default:
        scanPq4BlocksScalar(m, packed, nblocks, lut, out);
        return;
    }
}

void
scanPackedList(std::size_t m, const idx_t *ids, std::size_t count,
               const std::uint8_t *packed, const QuantizedLut &qlut,
               SearchScratch &sc, TopK &topk)
{
    scanPackedList(servingFastScanKernel(), m, ids, count, packed, qlut, sc,
                   topk);
}

void
scanPackedList(FastScanKernel kernel, std::size_t m, const idx_t *ids,
               std::size_t count, const std::uint8_t *packed,
               const QuantizedLut &qlut, SearchScratch &sc, TopK &topk)
{
    assert(hostRuns(kernel));
    switch (kernel) {
#ifdef VLR_USE_AVX2
    case FastScanKernel::Avx512bw:
        scanListAvx512(m, ids, count, packed, qlut, topk);
        return;
    case FastScanKernel::Avx2:
        scanListByGroups<Avx2Groups>(m, ids, count, packed, qlut, sc, topk);
        return;
#endif
    default:
        scanListByGroups<ScalarGroups>(m, ids, count, packed, qlut, sc,
                                       topk);
        return;
    }
}

} // namespace vlr::vs
