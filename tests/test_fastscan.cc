/**
 * @file
 * Tests for the PQ4 fast-scan kernels: packing layout, agreement of
 * every kernel with the scalar one, LUT quantization error bounds, the
 * score bound, and each kernel's bounded list scan against a
 * push-every-lane reference. Kernel suites run once per kernel; a case
 * whose kernel this host cannot run is skipped with the kernel's name.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vecsearch/fastscan.h"
#include "vecsearch/ivf_pq_fastscan.h"
#include "vecsearch/topk.h"

namespace vlr::vs
{
namespace
{

std::vector<std::uint8_t>
randomCodes(Rng &rng, std::size_t m, std::size_t n)
{
    std::vector<std::uint8_t> codes(n * m);
    for (auto &c : codes)
        c = static_cast<std::uint8_t>(rng.uniformU64(16));
    return codes;
}

std::vector<float>
randomLut(Rng &rng, std::size_t m)
{
    std::vector<float> lut(m * 16);
    for (auto &x : lut)
        x = static_cast<float>(rng.uniform(0.0, 4.0));
    return lut;
}

/** Every kernel, whether or not this host runs it. */
const FastScanKernel kAllKernels[] = {FastScanKernel::Scalar,
                                      FastScanKernel::Avx2,
                                      FastScanKernel::Avx512bw};

bool
hostRuns(FastScanKernel kernel)
{
    const auto kernels = fastScanKernels();
    return std::find(kernels.begin(), kernels.end(), kernel) !=
           kernels.end();
}

std::string
kernelName(const ::testing::TestParamInfo<FastScanKernel> &info)
{
    return fastScanKernelName(info.param);
}

/** A suite run once per kernel. */
class FastScanByKernel : public ::testing::TestWithParam<FastScanKernel>
{
  protected:
    void
    SetUp() override
    {
        if (!hostRuns(GetParam()))
            GTEST_SKIP() << fastScanKernelName(GetParam())
                         << " kernel: not available on this host";
    }
};

using FastScanListScan = FastScanByKernel;

INSTANTIATE_TEST_SUITE_P(Kernels, FastScanByKernel,
                         ::testing::ValuesIn(kAllKernels), kernelName);
INSTANTIATE_TEST_SUITE_P(Kernels, FastScanListScan,
                         ::testing::ValuesIn(kAllKernels), kernelName);

TEST(FastScan, ServingKernelIsTheLastTheHostRuns)
{
    const auto kernels = fastScanKernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_EQ(kernels.front(), FastScanKernel::Scalar);
    EXPECT_EQ(servingFastScanKernel(), kernels.back());
    EXPECT_EQ(fastScanHasSimd(),
              servingFastScanKernel() != FastScanKernel::Scalar);
    std::string names;
    for (const FastScanKernel k : kernels)
        names += std::string(names.empty() ? "" : " ") +
                 fastScanKernelName(k);
    RecordProperty("kernels", names);
    std::cout << "fast-scan kernels on this host: " << names
              << " (serving " << fastScanKernelName(servingFastScanKernel())
              << ")\n";
}

TEST(FastScan, PackedBlockBytes)
{
    EXPECT_EQ(packedBlockBytes(1), 16u);
    EXPECT_EQ(packedBlockBytes(8), 128u);
}

TEST(FastScan, PackPadsToWholeBlocks)
{
    Rng rng(1);
    const std::size_t m = 4;
    const auto codes = randomCodes(rng, m, 40); // 40 -> 2 blocks of 32
    const auto packed = packPq4Codes(m, codes, 40);
    EXPECT_EQ(packed.size(), 2 * packedBlockBytes(m));
}

TEST(FastScan, PackLayoutNibbles)
{
    // Code of vector j lands in byte j%16's low (j<16) or high (j>=16)
    // nibble of sub-quantizer m's 16-byte group.
    const std::size_t m = 2;
    std::vector<std::uint8_t> codes(32 * m);
    for (std::size_t j = 0; j < 32; ++j) {
        codes[j * m + 0] = static_cast<std::uint8_t>(j % 16);
        codes[j * m + 1] = static_cast<std::uint8_t>((j + 3) % 16);
    }
    const auto packed = packPq4Codes(m, codes, 32);
    ASSERT_EQ(packed.size(), packedBlockBytes(m));
    for (std::size_t j = 0; j < 16; ++j) {
        const std::uint8_t lo = packed[j] & 0xF;
        const std::uint8_t hi = (packed[j] >> 4) & 0xF;
        EXPECT_EQ(lo, j % 16);
        EXPECT_EQ(hi, (j + 16) % 16);
    }
}

TEST(FastScan, QuantizedLutReconstructsApproximately)
{
    Rng rng(2);
    const std::size_t m = 8;
    const auto lut = randomLut(rng, m);
    const auto qlut = quantizeLut(m, lut);
    // Entries quantize relative to their sub-quantizer row minimum with
    // a shared step; the row minima accumulate into the global bias.
    double bias = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
        float row_min = lut[s * 16];
        for (std::size_t j = 1; j < 16; ++j)
            row_min = std::min(row_min, lut[s * 16 + j]);
        bias += row_min;
        for (std::size_t j = 0; j < 16; ++j) {
            const double rec =
                row_min + qlut.step * qlut.table[s * 16 + j];
            EXPECT_NEAR(rec, lut[s * 16 + j], qlut.step + 1e-6);
        }
    }
    EXPECT_NEAR(qlut.bias, bias, 1e-4);
}

TEST(FastScan, ScalarScanMatchesManualLookup)
{
    Rng rng(3);
    const std::size_t m = 4, n = 64;
    const auto codes = randomCodes(rng, m, n);
    const auto lut = randomLut(rng, m);
    const auto qlut = quantizeLut(m, lut);
    const auto packed = packPq4Codes(m, codes, n);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);

    std::vector<std::uint16_t> scores(nblocks * kFastScanBlock);
    scanPq4BlocksScalar(m, packed.data(), nblocks, qlut, scores.data());

    for (std::size_t j = 0; j < n; ++j) {
        std::uint32_t expect = 0;
        for (std::size_t sub = 0; sub < m; ++sub)
            expect += qlut.table[sub * 16 + codes[j * m + sub]];
        EXPECT_EQ(scores[j], expect) << "lane " << j;
    }
}

TEST(FastScan, SimdMatchesScalar)
{
    Rng rng(4);
    const std::size_t m = 8, n = 256;
    const auto codes = randomCodes(rng, m, n);
    const auto lut = randomLut(rng, m);
    const auto qlut = quantizeLut(m, lut);
    const auto packed = packPq4Codes(m, codes, n);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);

    std::vector<std::uint16_t> simd(nblocks * kFastScanBlock);
    std::vector<std::uint16_t> scalar(nblocks * kFastScanBlock);
    scanPq4Blocks(m, packed.data(), nblocks, qlut, simd.data());
    scanPq4BlocksScalar(m, packed.data(), nblocks, qlut, scalar.data());
    for (std::size_t i = 0; i < simd.size(); ++i)
        EXPECT_EQ(simd[i], scalar[i]) << "lane " << i;
}

TEST(FastScan, AffineMappingPreservesOrder)
{
    // Lower float LUT distance must map to lower quantized score for
    // well-separated values.
    Rng rng(5);
    const std::size_t m = 4, n = 32;
    auto codes = randomCodes(rng, m, n);
    std::vector<float> lut(m * 16);
    for (std::size_t i = 0; i < lut.size(); ++i)
        lut[i] = static_cast<float>(i % 16); // 0..15 per sub
    const auto qlut = quantizeLut(m, lut);
    const auto packed = packPq4Codes(m, codes, n);
    std::vector<std::uint16_t> scores(kFastScanBlock);
    scanPq4BlocksScalar(m, packed.data(), 1, qlut, scores.data());

    for (std::size_t j = 0; j < n; ++j) {
        float fdist = 0.f;
        for (std::size_t sub = 0; sub < m; ++sub)
            fdist += lut[sub * 16 + codes[j * m + sub]];
        const double rec = qlut.bias + qlut.step * scores[j];
        EXPECT_NEAR(rec, fdist, m * qlut.step + 1e-5);
    }
}

/** Each kernel against the scalar one across m and list lengths. */
class FastScanParamTest
    : public ::testing::TestWithParam<
          std::tuple<FastScanKernel, std::size_t, std::size_t>>
{
  protected:
    void
    SetUp() override
    {
        const FastScanKernel kernel = std::get<0>(GetParam());
        if (!hostRuns(kernel))
            GTEST_SKIP() << fastScanKernelName(kernel)
                         << " kernel: not available on this host";
    }
};

TEST_P(FastScanParamTest, KernelsAgree)
{
    const auto [kernel, m, n] = GetParam();
    Rng rng(100 + m * 31 + n);
    const auto codes = randomCodes(rng, m, n);
    const auto lut = randomLut(rng, m);
    const auto qlut = quantizeLut(m, lut);
    const auto packed = packPq4Codes(m, codes, n);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);

    std::vector<std::uint16_t> got(nblocks * kFastScanBlock);
    std::vector<std::uint16_t> scalar(nblocks * kFastScanBlock);
    scanPq4Blocks(kernel, m, packed.data(), nblocks, qlut, got.data());
    scanPq4BlocksScalar(m, packed.data(), nblocks, qlut, scalar.data());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], scalar[i]) << "lane " << i;
}

// m = 3, 5, 6, 7, 17 and 33 end in each m mod 4 tail of the AVX-512BW
// kernel's four-sub-quantizer loads.
INSTANTIATE_TEST_SUITE_P(
    Sweep, FastScanParamTest,
    ::testing::Combine(::testing::ValuesIn(kAllKernels),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 33),
                       ::testing::Values(1, 31, 32, 33, 100, 256)),
    [](const auto &info) {
        return std::string(fastScanKernelName(std::get<0>(info.param))) +
               "_m" + std::to_string(std::get<1>(info.param)) + "_n" +
               std::to_string(std::get<2>(info.param));
    });

TEST(FastScan, AppendMatchesRepackOverConcatenation)
{
    Rng rng(99);
    const std::size_t m = 8;
    // Sweep splits crossing block boundaries both ways: filling a
    // partial tail block, landing exactly on one, and growing past it.
    for (const std::size_t n_old : {0ul, 1ul, 15ul, 16ul, 31ul, 32ul,
                                    33ul, 64ul, 97ul})
        for (const std::size_t n_new : {1ul, 7ul, 16ul, 32ul, 40ul}) {
            std::vector<std::uint8_t> codes((n_old + n_new) * m);
            for (auto &c : codes)
                c = static_cast<std::uint8_t>(rng.uniformU64(16));
            auto packed = packPq4Codes(
                m, std::span<const std::uint8_t>(codes.data(),
                                                 n_old * m),
                n_old);
            appendPq4Codes(
                m, packed, n_old,
                std::span<const std::uint8_t>(codes.data() + n_old * m,
                                              n_new * m),
                n_new);
            const auto repacked =
                packPq4Codes(m, codes, n_old + n_new);
            ASSERT_EQ(packed.size(), repacked.size())
                << n_old << "+" << n_new;
            EXPECT_TRUE(packed == repacked) << n_old << "+" << n_new;
        }
}

TEST_P(FastScanByKernel, MaxSubQuantizersScoreExactly65535)
{
    // 255 * 257 = 65535: the widest shape whose uint16 lane sums cannot
    // wrap, scored with every lane on its row's max entry.
    static_assert(255 * kMaxFastScanSub == 65535);
    const std::size_t m = kMaxFastScanSub, n = 40;
    std::vector<float> lut(m * 16);
    for (std::size_t i = 0; i < lut.size(); ++i)
        lut[i] = static_cast<float>(i % 16);
    const auto qlut = quantizeLut(m, lut);
    for (std::size_t s = 0; s < m; ++s)
        ASSERT_EQ(qlut.table[s * 16 + 15], 255) << "row " << s;
    const std::vector<std::uint8_t> codes(n * m, 15);
    const auto packed = packPq4Codes(m, codes, n);
    const std::size_t nblocks = packed.size() / packedBlockBytes(m);

    std::vector<std::uint16_t> got(nblocks * kFastScanBlock);
    std::vector<std::uint16_t> scalar(nblocks * kFastScanBlock);
    scanPq4Blocks(GetParam(), m, packed.data(), nblocks, qlut, got.data());
    scanPq4BlocksScalar(m, packed.data(), nblocks, qlut, scalar.data());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], 65535) << "lane " << i;
        EXPECT_EQ(scalar[i], 65535) << "lane " << i;
    }
}

// --- The score bound and the bounded list scan ------------------------

/** Brute-force definition of QuantizedLut::scoreBound. */
int
bruteBound(const QuantizedLut &q, float dist)
{
    int bound = -1;
    for (int s = 0; s <= 65535; ++s)
        if (q.distance(static_cast<std::uint16_t>(s)) <= dist)
            bound = s;
    return bound;
}

QuantizedLut
affineLut(float bias, float step)
{
    QuantizedLut q;
    q.bias = bias;
    q.step = step;
    return q;
}

TEST(FastScanScoreBound, BoundAtAScoresDistanceKeepsThatScore)
{
    Rng rng(31);
    const auto q = quantizeLut(8, randomLut(rng, 8));
    for (const int s : {0, 1, 2, 100, 1000, 2039, 40000, 65534, 65535}) {
        const float dist = q.distance(static_cast<std::uint16_t>(s));
        const int bound = q.scoreBound(dist);
        EXPECT_GE(bound, s);
        EXPECT_EQ(q.distance(static_cast<std::uint16_t>(bound)), dist);
        EXPECT_EQ(bound, bruteBound(q, dist)) << "score " << s;
    }
}

TEST(FastScanScoreBound, OutsideTheScoreRange)
{
    Rng rng(32);
    const auto q = quantizeLut(8, randomLut(rng, 8));
    const float inf = std::numeric_limits<float>::infinity();
    const float d0 = q.distance(0);
    const float dtop = q.distance(65535);
    EXPECT_EQ(q.scoreBound(std::nextafter(d0, -inf)), -1);
    EXPECT_EQ(q.scoreBound(-inf), -1);
    EXPECT_EQ(q.scoreBound(std::numeric_limits<float>::quiet_NaN()), -1);
    EXPECT_EQ(q.scoreBound(d0), bruteBound(q, d0));
    EXPECT_EQ(q.scoreBound(dtop), 65535);
    EXPECT_EQ(q.scoreBound(std::nextafter(dtop, inf)), 65535);
    EXPECT_EQ(q.scoreBound(std::numeric_limits<float>::max()), 65535);
    EXPECT_EQ(q.scoreBound(inf), 65535);
}

TEST(FastScanScoreBound, ConstantRowsGiveTheUnitStepLut)
{
    // quantizeLut falls back to step = 1 when every row is constant;
    // every entry quantizes to 0, so every lane scores 0.
    const std::size_t m = 4;
    const std::vector<float> lut(m * 16, 0.75f);
    const auto q = quantizeLut(m, lut);
    ASSERT_EQ(q.step, 1.f);
    EXPECT_EQ(q.scoreBound(q.distance(0)), 0);
    EXPECT_EQ(q.scoreBound(q.distance(0) + 2.5f), 2);
    EXPECT_EQ(q.scoreBound(std::nextafter(q.distance(0), -1e9f)), -1);
    for (const float dist : {0.f, 3.f, 3.5f, 100.f, 65538.f, 70000.f})
        EXPECT_EQ(q.scoreBound(dist), bruteBound(q, dist)) << dist;
}

TEST(FastScanScoreBound, MatchesBruteForce)
{
    Rng rng(33);
    std::vector<QuantizedLut> luts = {
        quantizeLut(8, randomLut(rng, 8)),
        quantizeLut(64, randomLut(rng, 64)),
        affineLut(-3.f, 1e-3f),
        // Float spacing at 1e6 is 0.0625, so ~600 consecutive scores
        // share each distance and the bound is the last of a run.
        affineLut(1e6f, 1e-4f),
        affineLut(2.f, 0.f),
    };
    for (std::size_t li = 0; li < luts.size(); ++li) {
        const QuantizedLut &q = luts[li];
        for (int t = 0; t < 40; ++t) {
            const auto s = static_cast<std::uint16_t>(rng.uniformU64(65536));
            float dist = q.distance(s);
            if (t % 3 == 1)
                dist = std::nextafter(dist, -1e30f);
            else if (t % 3 == 2)
                dist = std::nextafter(dist, 1e30f);
            ASSERT_EQ(q.scoreBound(dist), bruteBound(q, dist))
                << "lut " << li << " dist " << dist;
        }
    }
}

TEST(FastScanScoreBound, UnorderedMapFiltersNothing)
{
    EXPECT_EQ(affineLut(1.f, -0.5f).scoreBound(0.f), 65535);
    EXPECT_EQ(affineLut(std::numeric_limits<float>::quiet_NaN(), 1.f)
                  .scoreBound(0.f),
              65535);
    EXPECT_EQ(affineLut(0.f, std::numeric_limits<float>::infinity())
                  .scoreBound(0.f),
              65535);
}

/** A packed list whose ids are a shuffle of [first, first + n). */
struct PackedList
{
    std::vector<idx_t> ids;
    std::vector<std::uint8_t> packed;
};

PackedList
makeList(Rng &rng, std::size_t m, const std::vector<std::uint8_t> &codes,
         idx_t first)
{
    const std::size_t n = codes.size() / m;
    PackedList l;
    l.ids.resize(n);
    std::iota(l.ids.begin(), l.ids.end(), first);
    for (std::size_t i = n; i > 1; --i)
        std::swap(l.ids[i - 1], l.ids[rng.uniformU64(i)]);
    l.packed = packPq4Codes(m, codes, n);
    return l;
}

/** Scalar kernel scores of a list's lanes, padding lanes dropped. */
std::vector<std::uint16_t>
listScores(std::size_t m, const PackedList &l, const QuantizedLut &qlut)
{
    const std::size_t nblocks = l.packed.size() / packedBlockBytes(m);
    std::vector<std::uint16_t> scores(nblocks * kFastScanBlock);
    scanPq4BlocksScalar(m, l.packed.data(), nblocks, qlut, scores.data());
    scores.resize(l.ids.size());
    return scores;
}

/**
 * @p q's table under a coarse map: float spacing at 1e6 is 0.0625, so
 * ~62 consecutive scores share one distance, and a tie with the k-th
 * best spans a run of scores.
 */
QuantizedLut
coarseMap(const QuantizedLut &q)
{
    QuantizedLut c = affineLut(1e6f, 1e-3f);
    c.table = q.table;
    return c;
}

/** The loop scanPackedList replaced: dequantize and push every lane. */
void
pushEveryLane(std::size_t m, const PackedList &l, const QuantizedLut &qlut,
              TopK &topk)
{
    const auto scores = listScores(m, l, qlut);
    for (std::size_t i = 0; i < l.ids.size(); ++i)
        topk.push(l.ids[i],
                  qlut.bias + qlut.step * static_cast<float>(scores[i]));
}

void
scanList(FastScanKernel kernel, std::size_t m, const PackedList &l,
         const QuantizedLut &qlut, SearchScratch &sc, TopK &topk)
{
    scanPackedList(kernel, m, l.ids.data(), l.ids.size(), l.packed.data(),
                   qlut, sc, topk);
}

void
expectSameHits(const TopK &got, const TopK &want, const std::string &what)
{
    const auto g = got.sortedHits();
    const auto w = want.sortedHits();
    ASSERT_EQ(g.size(), w.size()) << what;
    for (std::size_t j = 0; j < w.size(); ++j) {
        EXPECT_EQ(g[j].id, w[j].id) << what << " rank " << j;
        EXPECT_EQ(g[j].dist, w[j].dist) << what << " rank " << j;
    }
}

TEST_P(FastScanListScan, MatchesPushEveryLane)
{
    Rng rng(41);
    // One scratch for every case: scores left over from a longer list
    // must never leak into a shorter one.
    SearchScratch sc;
    // m = 2 keeps scores within 0..510, so 1000-code lists tie a lot.
    for (const std::size_t m : {2ul, 8ul})
        for (const std::size_t count :
             {1ul, 15ul, 16ul, 17ul, 31ul, 32ul, 33ul, 100ul, 1000ul})
            for (int trial = 0; trial < 4; ++trial) {
                const auto fine = quantizeLut(m, randomLut(rng, m));
                const PackedList l =
                    makeList(rng, m, randomCodes(rng, m, count), 0);
                for (const QuantizedLut &qlut : {fine, coarseMap(fine)})
                    for (const std::size_t k :
                         {1ul, 10ul, count, count + 5}) {
                        TopK want(k), got(k);
                        pushEveryLane(m, l, qlut, want);
                        scanList(GetParam(), m, l, qlut, sc, got);
                        expectSameHits(
                            got, want,
                            "m " + std::to_string(m) + " count " +
                                std::to_string(count) + " k " +
                                std::to_string(k) + " bias " +
                                std::to_string(qlut.bias));
                    }
            }
}

TEST_P(FastScanListScan, PaddingLanesNeverEnter)
{
    // Code 0 is every row's best entry, but real lanes use codes 1..15:
    // only the zero-coded padding lanes of the tail block score lowest.
    Rng rng(42);
    const std::size_t m = 4;
    auto lut = randomLut(rng, m);
    for (std::size_t s = 0; s < m; ++s)
        lut[s * 16] = -1.f;
    const auto qlut = quantizeLut(m, lut);
    SearchScratch sc;
    for (const std::size_t count : {1ul, 17ul, 33ul, 40ul, 63ul}) {
        auto codes = randomCodes(rng, m, count);
        for (auto &c : codes)
            c = static_cast<std::uint8_t>(1 + c % 15);
        const PackedList l = makeList(rng, m, codes, 0);
        for (const std::size_t k : {1ul, 3ul}) {
            TopK want(k), got(k);
            pushEveryLane(m, l, qlut, want);
            scanList(GetParam(), m, l, qlut, sc, got);
            expectSameHits(got, want, "count " + std::to_string(count));
        }
    }
}

TEST_P(FastScanListScan, AllTiesAreDecidedById)
{
    Rng rng(43);
    const std::size_t m = 4, n = 100, k = 10;
    const auto qlut = quantizeLut(m, randomLut(rng, m));
    SearchScratch sc;
    // Every count but 100 ends in a partial group of 16 lanes, whose
    // ids may be read only up to the count: makeList allocates exactly
    // that many, so ASan sees any overrun.
    for (const std::size_t count : {17ul, 33ul, n, 1007ul}) {
        const std::vector<std::uint8_t> codes(count * m, 5);
        const PackedList l = makeList(rng, m, codes, 1000);
        TopK want(k), got(k);
        pushEveryLane(m, l, qlut, want);
        scanList(GetParam(), m, l, qlut, sc, got);
        const std::string what = "all ties, count " + std::to_string(count);
        expectSameHits(got, want, what);
        const auto hits = got.sortedHits();
        for (std::size_t j = 0; j < k; ++j) {
            EXPECT_EQ(hits[j].id, static_cast<idx_t>(1000 + j)) << what;
            EXPECT_EQ(hits[j].dist, hits[0].dist) << what;
        }
    }

    // The constant-row LUT maps every lane to score 0: ties again.
    const auto flat = quantizeLut(m, std::vector<float>(m * 16, 0.25f));
    const PackedList r = makeList(rng, m, randomCodes(rng, m, n), 0);
    TopK want_flat(k), got_flat(k);
    pushEveryLane(m, r, flat, want_flat);
    scanList(GetParam(), m, r, flat, sc, got_flat);
    expectSameHits(got_flat, want_flat, "unit-step LUT");
}

TEST_P(FastScanListScan, CarriesAFullTopKAcrossLists)
{
    // searchClusters carries one TopK over every probed list, so later
    // lists start with a full heap and an already-tight bound.
    Rng rng(44);
    const std::size_t m = 8;
    const auto fine = quantizeLut(m, randomLut(rng, m));
    std::vector<PackedList> lists;
    // List ids start above those of the off-grid prefill below.
    idx_t next = 10;
    for (const std::size_t n : {40ul, 7ul, 300ul, 1ul, 64ul, 129ul}) {
        lists.push_back(makeList(rng, m, randomCodes(rng, m, n), next));
        next += static_cast<idx_t>(n);
    }
    const auto prefill = [](TopK &topk, idx_t first, float dist) {
        for (std::size_t j = 0; j < topk.capacity(); ++j)
            topk.push(first + static_cast<idx_t>(j), dist);
    };
    SearchScratch sc;
    for (const QuantizedLut &qlut : {fine, coarseMap(fine)}) {
        const std::string map = "bias " + std::to_string(qlut.bias);
        for (const std::size_t k : {1ul, 5ul, 20ul, 100ul}) {
            TopK want(k), got(k);
            for (std::size_t li = 0; li < lists.size(); ++li) {
                pushEveryLane(m, lists[li], qlut, want);
                scanList(GetParam(), m, lists[li], qlut, sc, got);
                expectSameHits(got, want,
                               map + " k " + std::to_string(k) +
                                   " after list " + std::to_string(li));
            }
        }

        // A heap filled elsewhere, whose k-th best lies below every
        // lane (bound -1), inside the score range, or above every lane.
        const float inside = qlut.distance(300);
        for (const float prior : {qlut.bias - 1.f, inside, 1e30f}) {
            TopK want(10), got(10);
            prefill(want, 100000, prior);
            prefill(got, 100000, prior);
            for (const PackedList &l : lists) {
                pushEveryLane(m, l, qlut, want);
                scanList(GetParam(), m, l, qlut, sc, got);
            }
            expectSameHits(got, want,
                           map + " prefilled at " + std::to_string(prior));
        }
    }

    // A k-th best off the score grid, strictly between the distances of
    // the first list's lowest score s and of s + 1, held by ids below
    // every list id. Lanes scoring s are strictly closer and must enter
    // whatever their id; a filter taking "score == bound" for a tie
    // would drop them.
    const auto scores = listScores(m, lists[0], fine);
    const auto s = *std::min_element(scores.begin(), scores.end());
    const float lo = fine.distance(s);
    const float hi = fine.distance(static_cast<std::uint16_t>(s + 1));
    const float off = lo + 0.5f * (hi - lo);
    ASSERT_LT(lo, off);
    ASSERT_LT(off, hi);
    for (const std::size_t k : {1ul, 10ul}) {
        TopK want(k), got(k);
        prefill(want, 0, off);
        prefill(got, 0, off);
        for (std::size_t li = 0; li < lists.size(); ++li) {
            pushEveryLane(m, lists[li], fine, want);
            scanList(GetParam(), m, lists[li], fine, sc, got);
            expectSameHits(got, want,
                           "off-grid k " + std::to_string(k) +
                               " after list " + std::to_string(li));
        }
    }
}

} // namespace
} // namespace vlr::vs
