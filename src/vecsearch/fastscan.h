/**
 * @file
 * PQ4 fast-scan kernels (Andre et al., VLDB 2016): 4-bit PQ codes are
 * packed into register-friendly blocks of 32 vectors and the ADC lookup
 * table is quantized to uint8, so table lookups run as SIMD byte
 * shuffles: 16 per 128-bit lane, one sub-quantizer's row per lane. The
 * AVX2 kernel scores one sub-quantizer of a block per shuffle pair, the
 * AVX-512BW kernel four. This is the "IVF-FS" configuration the paper
 * adopts for its CPU tier (Section II-B, Fig. 3).
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

#include "common/types.h"
#include "vecsearch/topk.h"

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
 * A fast-scan implementation. Every kernel scores a lane to the same
 * integer, so the hits of a search do not depend on which one runs.
 */
enum class FastScanKernel
{
    /** Portable C++: every build, every host. */
    Scalar,
    /** Built with VLR_USE_AVX2. */
    Avx2,
    /**
     * Built with VLR_USE_AVX2 (its functions carry their own target
     * attribute); runs only where the CPU has AVX-512BW.
     */
    Avx512bw,
};

/** "scalar", "avx2" or "avx512bw". */
const char *fastScanKernelName(FastScanKernel kernel);

/**
 * The kernels this build can run on this CPU, slowest first: scalar,
 * then avx2 when built, then avx512bw when the CPU also has AVX-512BW.
 * The CPU is checked once per process.
 */
std::span<const FastScanKernel> fastScanKernels();

/** The kernel every search runs: the last of fastScanKernels(). */
FastScanKernel servingFastScanKernel();

/** True when the serving kernel is a SIMD one (AVX2 is compiled in). */
bool fastScanHasSimd();

/**
 * Scan packed blocks, producing one uint16 score per code lane, with
 * the serving kernel.
 * @param out must hold nblocks * 32 entries.
 */
void scanPq4Blocks(std::size_t m, const std::uint8_t *packed,
                   std::size_t nblocks, const QuantizedLut &lut,
                   std::uint16_t *out);

/** scanPq4Blocks with @p kernel, one of fastScanKernels(). */
void scanPq4Blocks(FastScanKernel kernel, std::size_t m,
                   const std::uint8_t *packed, std::size_t nblocks,
                   const QuantizedLut &lut, std::uint16_t *out);

/** Scalar reference producing bit-identical scores to the SIMD path. */
void scanPq4BlocksScalar(std::size_t m, const std::uint8_t *packed,
                         std::size_t nblocks, const QuantizedLut &lut,
                         std::uint16_t *out);

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
 * Score one packed inverted list with the serving kernel and push the
 * lanes that enter @p topk. This is the one scan+top-k loop behind
 * every fast-scan list reader — IvfPqFastScanIndex and the storage
 * layer's memory-mapped cold tier — so their distances are
 * bit-identical by construction. @p ids holds the list's @p count
 * vector ids in scan order and @p packed its whole fast-scan blocks.
 *
 * Lanes are pushed until @p topk is full. After that, the k-th best hit
 * (wd, wid) splits the scores into three bands:
 *  - up to below = scoreBound(nextafter(wd, -inf)): distance < wd;
 *  - in (below, bound = scoreBound(wd)]: distance == wd;
 *  - above bound: distance > wd.
 * Lanes are tested in groups with SIMD compares. A lane passes if it
 * scores at most below, or lies in the tie band with an id below wid.
 * Every passing lane is confirmed by TopK::accepts, and only accepted
 * lanes are pushed and refresh bound, below and wid.
 *
 * The scalar and AVX2 kernels score the whole list into sc.scores
 * (grown as needed) and then test 16-lane groups, settling a tie band
 * with four 64-bit id compares. The AVX-512BW kernel scores one block
 * at a time and tests it in mask registers: an unsigned compare with
 * bound gives the lane mask and one with below the tie band, which
 * masked id loads and compares settle. A block's scores leave the
 * register only when a lane survives, and sc.scores is not used.
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

/** scanPackedList with @p kernel, one of fastScanKernels(). */
void scanPackedList(FastScanKernel kernel, std::size_t m, const idx_t *ids,
                    std::size_t count, const std::uint8_t *packed,
                    const QuantizedLut &qlut, SearchScratch &sc,
                    TopK &topk);

} // namespace vlr::vs

#endif // VLR_VECSEARCH_FASTSCAN_H
