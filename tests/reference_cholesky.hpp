// Test-only textbook Cholesky elimination: the scalar, row-major loop that
// CholeskyFactor::compute() must reproduce bit for bit. Each entry of L
// subtracts its products l(i,k) * l(j,k) with k ascending, then the
// off-diagonal entries take one multiply by the reciprocal diagonal. The
// optimized elimination reorders the loops into vector register tiles but
// keeps every element's chain, and the bitwise tests compare against this.
// Include it only from TUs built with -ffp-contract=off (tests/CMakeLists.txt),
// as the library's kernels are: an FMA would round differently.
#pragma once

#include <cassert>
#include <cmath>
#include <optional>

#include "linalg/matrix.hpp"

namespace ppat::testing {

/// Lower factor L of the symmetric matrix `a`, or nullopt when `a` is not
/// positive definite to working precision.
inline std::optional<linalg::Matrix> reference_cholesky(
    const linalg::Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  linalg::Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      // Inner product over the already-computed columns; rows are contiguous.
      const auto li = l.row(i);
      const auto lj = l.row(j);
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      l(i, j) = s * inv;
    }
  }
  return l;
}

}  // namespace ppat::testing
