#include "autodiff/matexp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/kernels_avx2.hpp"
#include "tensor/simd.hpp"

namespace smoothe::ad {

namespace {

/** c = a * b for row-major d x d doubles. The AVX2 variant keeps the
 *  ikj order and the zero-skip branch, so both paths are bitwise
 *  identical (doubles; mul and add separately rounded in each). */
void
matmulSquare(const double* a, const double* b, double* c, std::size_t d)
{
    if (tensor::simd::avx2Active()) {
        tensor::avx2::matmulSquare(a, b, c, d);
        return;
    }
    std::fill(c, c + d * d, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t k = 0; k < d; ++k) {
            const double aik = a[i * d + k];
            if (aik == 0.0)
                continue;
            const double* bRow = b + k * d;
            double* cRow = c + i * d;
            for (std::size_t j = 0; j < d; ++j)
                cRow[j] += aik * bRow[j];
        }
    }
}

/** Row-compressed nonzeros of a d x d matrix. */
struct SparseRows
{
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> cols;
    std::vector<double> values;
};

SparseRows
sparseRows(const double* b, std::size_t d)
{
    SparseRows rows;
    rows.offsets.reserve(d + 1);
    rows.offsets.push_back(0);
    for (std::size_t k = 0; k < d; ++k) {
        for (std::size_t j = 0; j < d; ++j) {
            if (b[k * d + j] != 0.0) {
                rows.cols.push_back(static_cast<std::uint32_t>(j));
                rows.values.push_back(b[k * d + j]);
            }
        }
        rows.offsets.push_back(static_cast<std::uint32_t>(rows.cols.size()));
    }
    return rows;
}

/**
 * c = a * b with b given by its row nonzeros: matmulSquare's ikj loop
 * minus the addends a[i][k] * b[k][j] with b[k][j] == 0. For finite a
 * such an addend is exactly +-0, and a sum that starts at +0 never
 * becomes -0 (x + -0 == x, +0 + -0 == +0), so dropping it changes no
 * bit of c.
 */
void
matmulSparseRight(const double* a, const SparseRows& b, double* c,
                  std::size_t d)
{
    std::fill(c, c + d * d, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
        double* cRow = c + i * d;
        for (std::size_t k = 0; k < d; ++k) {
            const double aik = a[i * d + k];
            if (aik == 0.0)
                continue;
            for (std::uint32_t e = b.offsets[k]; e < b.offsets[k + 1]; ++e)
                cRow[b.cols[e]] += aik * b.values[e];
        }
    }
}

double
infinityNorm(const double* a, std::size_t d)
{
    double best = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
        double rowSum = 0.0;
        for (std::size_t j = 0; j < d; ++j)
            rowSum += std::fabs(a[i * d + j]);
        best = std::max(best, rowSum);
    }
    return best;
}

} // namespace

void
expmDouble(const double* a, std::size_t d, double* out)
{
    if (d == 0)
        return;
    if (d == 1) {
        out[0] = std::exp(a[0]);
        return;
    }

    const std::size_t n2 = d * d;
    std::vector<double> scaled(a, a + n2);

    // Scaling: bring the norm under ~0.5 so the series converges fast.
    const double norm = infinityNorm(a, d);
    int squarings = 0;
    if (norm > 0.5) {
        squarings = static_cast<int>(std::ceil(std::log2(norm / 0.5)));
        squarings = std::min(squarings, 60);
        const double factor = std::ldexp(1.0, -squarings);
        for (double& v : scaled)
            v *= factor;
    }

    // Taylor series: I + A + A^2/2! + ... (18 terms is ample at norm 0.5;
    // the tail is < 0.5^18/18! ~ 1e-21).
    std::vector<double> result(n2, 0.0);
    for (std::size_t i = 0; i < d; ++i)
        result[i * d + i] = 1.0;
    // Every Taylor product multiplies by `scaled`, whose nonzeros (the
    // SCC's weighted edges) are gathered once.
    const SparseRows scaledRows = sparseRows(scaled.data(), d);
    std::vector<double> power(scaled);
    std::vector<double> temp(n2);
    double factorial = 1.0;
    constexpr int kTerms = 18;
    for (int term = 1; term <= kTerms; ++term) {
        factorial *= term;
        const double inv = 1.0 / factorial;
        for (std::size_t i = 0; i < n2; ++i)
            result[i] += power[i] * inv;
        if (term < kTerms) {
            matmulSparseRight(power.data(), scaledRows, temp.data(), d);
            power.swap(temp);
        }
    }

    // Squaring: exp(A) = (exp(A / 2^s))^(2^s).
    for (int s = 0; s < squarings; ++s) {
        matmulSquare(result.data(), result.data(), temp.data(), d);
        result.swap(temp);
    }

    std::memcpy(out, result.data(), n2 * sizeof(double));
}

namespace {

/** Cache-hostile ijk product with per-element accumulation. */
__attribute__((noinline)) void
matmulNaive(const double* a, const double* b, double* c, std::size_t d)
{
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < d; ++k)
                acc += a[i * d + k] * b[k * d + j];
            c[i * d + j] = acc;
        }
    }
}

} // namespace

void
expmNaive(const float* a, std::size_t d, float* out)
{
    if (d == 0)
        return;
    const std::size_t n2 = d * d;
    std::vector<double> scaled(n2);
    for (std::size_t i = 0; i < n2; ++i)
        scaled[i] = a[i];

    // Fixed scaling by 2^6 regardless of norm (no adaptivity), full
    // 18-term series, naive products throughout.
    constexpr int squarings = 6;
    const double factor = std::ldexp(1.0, -squarings);
    for (double& v : scaled)
        v *= factor;

    std::vector<double> result(n2, 0.0);
    for (std::size_t i = 0; i < d; ++i)
        result[i * d + i] = 1.0;
    std::vector<double> power(scaled);
    std::vector<double> temp(n2);
    double factorial = 1.0;
    constexpr int kTerms = 18;
    for (int term = 1; term <= kTerms; ++term) {
        factorial *= term;
        for (std::size_t i = 0; i < n2; ++i)
            result[i] += power[i] / factorial;
        if (term < kTerms) {
            matmulNaive(power.data(), scaled.data(), temp.data(), d);
            power.swap(temp);
        }
    }
    for (int s = 0; s < squarings; ++s) {
        matmulNaive(result.data(), result.data(), temp.data(), d);
        result.swap(temp);
    }
    for (std::size_t i = 0; i < n2; ++i)
        out[i] = static_cast<float>(result[i]);
}

void
expm(const float* a, std::size_t d, float* out)
{
    const std::size_t n2 = d * d;
    std::vector<double> input(n2);
    std::vector<double> output(n2);
    for (std::size_t i = 0; i < n2; ++i)
        input[i] = a[i];
    expmDouble(input.data(), d, output.data());
    for (std::size_t i = 0; i < n2; ++i)
        out[i] = static_cast<float>(output[i]);
}

double
traceExpm(const float* a, std::size_t d)
{
    const std::size_t n2 = d * d;
    std::vector<double> input(n2);
    std::vector<double> output(n2);
    for (std::size_t i = 0; i < n2; ++i)
        input[i] = a[i];
    expmDouble(input.data(), d, output.data());
    double trace = 0.0;
    for (std::size_t i = 0; i < d; ++i)
        trace += output[i * d + i];
    return trace;
}

} // namespace smoothe::ad
