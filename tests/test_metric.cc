/**
 * @file
 * Tests for the distance kernels: SIMD vs scalar agreement, metric
 * semantics and batched distance computation.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vecsearch/metric.h"

namespace vlr::vs
{
namespace
{

std::vector<float>
randomVector(Rng &rng, std::size_t d)
{
    std::vector<float> v(d);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian());
    return v;
}

TEST(Metric, L2OfIdenticalVectorsIsZero)
{
    Rng rng(1);
    const auto v = randomVector(rng, 33);
    EXPECT_FLOAT_EQ(l2Sqr(v.data(), v.data(), v.size()), 0.f);
}

TEST(Metric, L2KnownValue)
{
    const float a[] = {1.f, 2.f, 3.f};
    const float b[] = {4.f, 6.f, 3.f};
    EXPECT_FLOAT_EQ(l2Sqr(a, b, 3), 9.f + 16.f + 0.f);
}

TEST(Metric, InnerProductKnownValue)
{
    const float a[] = {1.f, 2.f, 3.f};
    const float b[] = {4.f, 5.f, 6.f};
    EXPECT_FLOAT_EQ(innerProduct(a, b, 3), 32.f);
}

TEST(Metric, L2IsSymmetric)
{
    Rng rng(2);
    const auto a = randomVector(rng, 48);
    const auto b = randomVector(rng, 48);
    EXPECT_FLOAT_EQ(l2Sqr(a.data(), b.data(), 48),
                    l2Sqr(b.data(), a.data(), 48));
}

TEST(Metric, ComparableDistanceL2IsPlain)
{
    Rng rng(3);
    const auto a = randomVector(rng, 16);
    const auto b = randomVector(rng, 16);
    EXPECT_FLOAT_EQ(comparableDistance(Metric::L2, a.data(), b.data(), 16),
                    l2Sqr(a.data(), b.data(), 16));
}

TEST(Metric, ComparableDistanceIpIsNegated)
{
    Rng rng(4);
    const auto a = randomVector(rng, 16);
    const auto b = randomVector(rng, 16);
    EXPECT_FLOAT_EQ(
        comparableDistance(Metric::InnerProduct, a.data(), b.data(), 16),
        -innerProduct(a.data(), b.data(), 16));
}

/**
 * distancesToMany equals comparableDistance bit for bit across row
 * counts around the four-row step and dimensions with and without a
 * tail past the last 8 lanes.
 */
void
expectDistancesToManyExact(Metric m, std::uint64_t seed)
{
    for (const std::size_t n : {0, 1, 3, 4, 5, 8, 17, 1023}) {
        for (const std::size_t d : {1, 4, 7, 8, 9, 20, 64, 65}) {
            Rng rng(seed + 100 * n + d);
            const auto q = randomVector(rng, d);
            const auto base = randomVector(rng, n * d);
            std::vector<float> out(n);
            distancesToMany(m, q.data(), base.data(), n, d, out.data());
            for (std::size_t i = 0; i < n; ++i) {
                const float want =
                    comparableDistance(m, q.data(), base.data() + i * d, d);
                ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                          std::bit_cast<std::uint32_t>(want))
                    << "n " << n << " d " << d << " row " << i << ": "
                    << out[i] << " vs " << want;
            }
        }
    }
}

TEST(Metric, DistancesToManyMatchesLoop)
{
    expectDistancesToManyExact(Metric::L2, 5);
}

TEST(Metric, DistancesToManyInnerProduct)
{
    expectDistancesToManyExact(Metric::InnerProduct, 6);
}

/**
 * SIMD and scalar kernels must agree to floating-point reassociation
 * tolerance across a sweep of dimensions, including non-multiples of
 * the vector width.
 */
class MetricKernelTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MetricKernelTest, SimdMatchesScalarL2)
{
    const std::size_t d = GetParam();
    Rng rng(100 + d);
    const auto a = randomVector(rng, d);
    const auto b = randomVector(rng, d);
    const float simd = l2Sqr(a.data(), b.data(), d);
    const float scalar = l2SqrScalar(a.data(), b.data(), d);
    EXPECT_NEAR(simd, scalar, 1e-4f * (1.f + std::abs(scalar)));
}

TEST_P(MetricKernelTest, SimdMatchesScalarIp)
{
    const std::size_t d = GetParam();
    Rng rng(200 + d);
    const auto a = randomVector(rng, d);
    const auto b = randomVector(rng, d);
    const float simd = innerProduct(a.data(), b.data(), d);
    const float scalar = innerProductScalar(a.data(), b.data(), d);
    EXPECT_NEAR(simd, scalar, 1e-4f * (1.f + std::abs(scalar)));
}

INSTANTIATE_TEST_SUITE_P(DimSweep, MetricKernelTest,
                         ::testing::Values(1, 3, 7, 8, 15, 16, 17, 31, 32,
                                           48, 64, 100, 128, 768));

} // namespace
} // namespace vlr::vs
