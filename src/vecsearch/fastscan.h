/**
 * @file
 * PQ4 fast-scan kernels (Andre et al., VLDB 2016): 4-bit PQ codes are
 * packed into register-friendly blocks of 32 vectors and the ADC lookup
 * table is quantized to uint8 so 32 table lookups run as one AVX2
 * byte-shuffle. This is the "IVF-FS" configuration the paper adopts for
 * its CPU tier (Section II-B, Fig. 3).
 *
 * Layout: for each block of 32 codes and each sub-quantizer m, 16 bytes
 * are stored; byte j holds the 4-bit code of vector j in its low nibble
 * and of vector j+16 in its high nibble.
 */

#ifndef VLR_VECSEARCH_FASTSCAN_H
#define VLR_VECSEARCH_FASTSCAN_H

#include <cstdint>
#include <span>
#include <vector>

namespace vlr::vs
{

/** Number of codes per packed block. */
inline constexpr std::size_t kFastScanBlock = 32;

/**
 * Most sub-quantizers a fast-scan index may have. A lane's score is a
 * uint16 sum of m uint8 LUT entries, which cannot wrap while
 * 255 * m <= 65535.
 */
inline constexpr std::size_t kMaxFastScanSub = 257;

/** uint8-quantized ADC lookup table with the affine mapping back. */
struct QuantizedLut
{
    /** m * 16 quantized entries. */
    std::vector<std::uint8_t> table;
    /** Reconstruction: distance ~= bias + step * accumulated_score. */
    float bias = 0.f;
    float step = 1.f;

    /**
     * Distance of one accumulated score. Every scan+top-k reader and
     * scoreBound() evaluate this one expression, so a bound derived from
     * a distance and the distances pushed for the lanes it admits agree
     * bit for bit.
     */
    float
    distance(std::uint16_t score) const
    {
        return bias + step * static_cast<float>(score);
    }

    /**
     * Largest score whose distance() is <= @p dist, or -1 when even
     * score 0 maps above it. With a finite bias and a finite step >= 0
     * (what quantizeLut builds from a finite LUT) distance() is
     * monotone in the score, because a rounded multiply and a rounded
     * add each preserve order, so every score above the bound maps
     * strictly above @p dist. Otherwise the bound is 65535 and filters
     * nothing.
     */
    int scoreBound(float dist) const;
};

/** Bytes of one packed block for m sub-quantizers. */
std::size_t packedBlockBytes(std::size_t m);

/**
 * Pack n 4-bit codes (one byte per sub-quantizer, values < 16) into the
 * blocked layout. Output is padded to a whole number of blocks; padding
 * lanes carry code 0 and must be masked by the caller via ids.
 */
std::vector<std::uint8_t> packPq4Codes(std::size_t m,
                                       std::span<const std::uint8_t> codes,
                                       std::size_t n);

/**
 * Append n_new codes to an already-packed list of n_old codes in place:
 * the tail block's free lanes are filled and whole new blocks are
 * grown, without unpacking the existing codes. @p packed must hold
 * exactly the blocks of n_old codes (padding lanes zero, as
 * packPq4Codes leaves them) and afterwards is byte-for-byte identical
 * to packPq4Codes over the concatenated code sequence — the O(n_new)
 * ingestion primitive behind addPreassigned and the storage layer's
 * delta lists.
 */
void appendPq4Codes(std::size_t m, std::vector<std::uint8_t> &packed,
                    std::size_t n_old,
                    std::span<const std::uint8_t> codes,
                    std::size_t n_new);

/**
 * Quantize a float LUT (m rows of 16) to uint8 with a shared step so
 * accumulated uint16 scores map back to distances affinely.
 */
QuantizedLut quantizeLut(std::size_t m, std::span<const float> lut);

/**
 * Scan packed blocks, producing one uint16 score per code lane.
 * @param out must hold nblocks * 32 entries.
 */
void scanPq4Blocks(std::size_t m, const std::uint8_t *packed,
                   std::size_t nblocks, const QuantizedLut &lut,
                   std::uint16_t *out);

/** Scalar reference producing bit-identical scores to the SIMD path. */
void scanPq4BlocksScalar(std::size_t m, const std::uint8_t *packed,
                         std::size_t nblocks, const QuantizedLut &lut,
                         std::uint16_t *out);

/** True when the AVX2 kernel is compiled in. */
bool fastScanHasSimd();

} // namespace vlr::vs

#endif // VLR_VECSEARCH_FASTSCAN_H
