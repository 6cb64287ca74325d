/**
 * @file
 * Dense matrix exponential (scaling-and-squaring with a Taylor/Pade-style
 * series, double-precision internals).
 *
 * Used by the NOTEARS acyclicity penalty h(A) = tr(exp(A)) - d
 * (Section 3.4). The autodiff tape exposes tr(exp(A)) as a primitive whose
 * exact gradient is exp(A)^T, so only the forward evaluation lives here.
 */

#ifndef SMOOTHE_AUTODIFF_MATEXP_HPP
#define SMOOTHE_AUTODIFF_MATEXP_HPP

#include <cstddef>
#include <vector>

namespace smoothe::ad {

/**
 * Computes out = exp(a) for a dense row-major d x d matrix.
 * Internals run in double precision; inputs/outputs are float.
 * Complexity O(d * nnz(a) * taylor terms + d^3 * squarings): the series
 * multiplies by a through its row nonzeros only.
 */
void expm(const float* a, std::size_t d, float* out);

/** Double-precision variant used by tests. */
void expmDouble(const double* a, std::size_t d, double* out);

/**
 * Deliberately unoptimized reference implementation: cache-hostile ijk
 * matrix products, no zero skipping, no norm-aware term cutoff. Used by
 * the Scalar backend to model an eager, unfused CPU execution (the
 * paper's Figure 6 "CPU baseline"); numerically equivalent to expm().
 */
void expmNaive(const float* a, std::size_t d, float* out);

/** Convenience: tr(exp(a)) for a row-major d x d matrix. */
double traceExpm(const float* a, std::size_t d);

} // namespace smoothe::ad

#endif // SMOOTHE_AUTODIFF_MATEXP_HPP
