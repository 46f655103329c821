#include "vecsearch/metric.h"

#ifdef VLR_USE_AVX2
#include <immintrin.h>
#endif

namespace vlr::vs
{

float
l2SqrScalar(const float *a, const float *b, std::size_t d)
{
    float acc = 0.f;
    for (std::size_t i = 0; i < d; ++i) {
        const float diff = a[i] - b[i];
        acc += diff * diff;
    }
    return acc;
}

float
innerProductScalar(const float *a, const float *b, std::size_t d)
{
    float acc = 0.f;
    for (std::size_t i = 0; i < d; ++i)
        acc += a[i] * b[i];
    return acc;
}

#ifdef VLR_USE_AVX2

namespace
{

float
hsum256(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    __m128 sh = _mm_movehdup_ps(lo);
    __m128 sums = _mm_add_ps(lo, sh);
    sh = _mm_movehl_ps(sh, sums);
    sums = _mm_add_ss(sums, sh);
    return _mm_cvtss_f32(sums);
}

/** One 8-lane step of l2Sqr (M = L2) or innerProduct. */
template <Metric M>
__m256
step(__m256 acc, __m256 a, __m256 b)
{
    if constexpr (M == Metric::L2) {
        const __m256 diff = _mm256_sub_ps(a, b);
        return _mm256_fmadd_ps(diff, diff, acc);
    } else {
        return _mm256_fmadd_ps(a, b, acc);
    }
}

/**
 * distancesToMany for d a multiple of 8, four rows per pass: four
 * independent accumulator chains instead of one. Each row gets
 * l2Sqr's or innerProduct's steps in order and the same hsum256, so
 * every distance is bit-identical to comparableDistance.
 */
template <Metric M>
void
distancesFourRows(const float *q, const float *base, std::size_t n,
                  std::size_t d, float *out)
{
    // comparableDistance negates the dot product.
    const auto comparable = [](float t) { return M == Metric::L2 ? t : -t; };
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const float *b0 = base + r * d;
        const float *b1 = b0 + d;
        const float *b2 = b1 + d;
        const float *b3 = b2 + d;
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = acc0, acc2 = acc0, acc3 = acc0;
        for (std::size_t i = 0; i < d; i += 8) {
            const __m256 vq = _mm256_loadu_ps(q + i);
            acc0 = step<M>(acc0, vq, _mm256_loadu_ps(b0 + i));
            acc1 = step<M>(acc1, vq, _mm256_loadu_ps(b1 + i));
            acc2 = step<M>(acc2, vq, _mm256_loadu_ps(b2 + i));
            acc3 = step<M>(acc3, vq, _mm256_loadu_ps(b3 + i));
        }
        out[r] = comparable(hsum256(acc0));
        out[r + 1] = comparable(hsum256(acc1));
        out[r + 2] = comparable(hsum256(acc2));
        out[r + 3] = comparable(hsum256(acc3));
    }
    for (; r < n; ++r)
        out[r] = comparableDistance(M, q, base + r * d, d);
}

} // namespace

float
l2Sqr(const float *a, const float *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        acc = step<Metric::L2>(acc, _mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i));
    }
    float total = hsum256(acc);
    for (; i < d; ++i) {
        const float diff = a[i] - b[i];
        total += diff * diff;
    }
    return total;
}

float
innerProduct(const float *a, const float *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
        acc = step<Metric::InnerProduct>(acc, _mm256_loadu_ps(a + i),
                                         _mm256_loadu_ps(b + i));
    }
    float total = hsum256(acc);
    for (; i < d; ++i)
        total += a[i] * b[i];
    return total;
}

#else

float
l2Sqr(const float *a, const float *b, std::size_t d)
{
    return l2SqrScalar(a, b, d);
}

float
innerProduct(const float *a, const float *b, std::size_t d)
{
    return innerProductScalar(a, b, d);
}

#endif // VLR_USE_AVX2

float
comparableDistance(Metric m, const float *a, const float *b, std::size_t d)
{
    if (m == Metric::L2)
        return l2Sqr(a, b, d);
    return -innerProduct(a, b, d);
}

void
distancesToMany(Metric m, const float *q, const float *base, std::size_t n,
                std::size_t d, float *out)
{
#ifdef VLR_USE_AVX2
    // How a scalar tail rounds depends on how the compiler vectorized
    // it, so rows with one stay on the one-row kernel.
    if (d % 8 == 0) {
        if (m == Metric::L2)
            distancesFourRows<Metric::L2>(q, base, n, d, out);
        else
            distancesFourRows<Metric::InnerProduct>(q, base, n, d, out);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        out[i] = comparableDistance(m, q, base + i * d, d);
}

} // namespace vlr::vs
