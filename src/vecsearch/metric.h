/**
 * @file
 * Distance kernels for similarity search (L2 squared and inner product)
 * with AVX2 implementations and scalar fallbacks.
 *
 * Convention: all search code minimizes a "distance". For inner-product
 * metrics the comparable distance is the negated dot product so a single
 * smaller-is-better code path serves both metrics.
 */

#ifndef VLR_VECSEARCH_METRIC_H
#define VLR_VECSEARCH_METRIC_H

#include <cstddef>

namespace vlr::vs
{

/** Supported similarity metrics. */
enum class Metric { L2, InnerProduct };

/** Squared Euclidean distance between d-dim float vectors. */
float l2Sqr(const float *a, const float *b, std::size_t d);

/** Dot product between d-dim float vectors. */
float innerProduct(const float *a, const float *b, std::size_t d);

/** Smaller-is-better distance under the given metric. */
float comparableDistance(Metric m, const float *a, const float *b,
                         std::size_t d);

/** Scalar reference implementations (exposed for kernel tests). */
float l2SqrScalar(const float *a, const float *b, std::size_t d);
float innerProductScalar(const float *a, const float *b, std::size_t d);

/**
 * Distances from one query to n contiguous database vectors;
 * out[i] = comparableDistance(q, base + i*d), bit for bit. The AVX2
 * build scores four rows per pass when d is a multiple of 8.
 */
void distancesToMany(Metric m, const float *q, const float *base,
                     std::size_t n, std::size_t d, float *out);

} // namespace vlr::vs

#endif // VLR_VECSEARCH_METRIC_H
