#include "vecsearch/fastscan.h"

#include <algorithm>
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

#ifdef VLR_USE_AVX2

void
scanPq4Blocks(std::size_t m, const std::uint8_t *packed,
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

bool
fastScanHasSimd()
{
    return true;
}

#else

void
scanPq4Blocks(std::size_t m, const std::uint8_t *packed,
              std::size_t nblocks, const QuantizedLut &lut,
              std::uint16_t *out)
{
    scanPq4BlocksScalar(m, packed, nblocks, lut, out);
}

bool
fastScanHasSimd()
{
    return false;
}

#endif // VLR_USE_AVX2

} // namespace vlr::vs
