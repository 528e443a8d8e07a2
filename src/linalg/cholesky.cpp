#include "linalg/cholesky.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/log.hpp"
#include "common/parallel.hpp"

namespace ppat::linalg {
namespace {

// The two hot kernels of this file — the elimination's trailing-row update
// and the multi-RHS forward solve — are written on Vec4, a GCC/Clang vector
// of four doubles. Its arithmetic is lane-wise IEEE: a lane computes exactly
// what the scalar statement computes for its element, so a kernel on Vec4
// keeps every element's reference operation chain and its bits. The type,
// not the optimizer's cost model, is what vectorizes them: they are vector
// code at every -O level (GCC 12's -O2 cost model vectorizes none of the
// equivalent scalar loops).
//
// Rules the kernels keep:
//   * each element subtracts its products with k strictly ascending, as
//     acc = acc - x * c (no reassociation across k);
//   * the file is compiled with -ffp-contract=off (see CMakeLists.txt), so
//     no clone fuses a mul/sub pair into an FMA;
//   * Vec4 never crosses a call boundary by value (that changes the psABI
//     between clones and raises -Wpsabi): helpers take references or
//     pointers and are always_inline;
//   * the fixed-trip loops over a tile's accumulators carry
//     `#pragma GCC unroll`: -O2 does not unroll them on its own, and rolled
//     loops keep the accumulators in memory instead of registers.
//
// target_clones: the AVX2/AVX-512 clones (runtime-dispatched) execute a
// Vec4 operation as one 256-bit instruction, the default clone as two SSE2
// ones; the roundings are the same. TSan builds take the default clone only:
// GCC 12's libtsan segfaults before main on the clones' ifunc resolvers.
using Vec4 = double __attribute__((vector_size(32)));

#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define PPAT_SIMD_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef PPAT_SIMD_CLONES
#define PPAT_SIMD_CLONES
#endif

/// Doubles per accumulator: 4 for Vec4, 1 for the scalar remainders.
template <class T>
constexpr std::size_t kLanes = sizeof(T) / sizeof(double);

/// Unaligned load/store of one accumulator (a single vector move).
template <class T>
[[gnu::always_inline]] inline void load(T& dst, const double* src) {
  std::memcpy(&dst, src, sizeof(T));
}
template <class T>
[[gnu::always_inline]] inline void store(double* dst, const T& src) {
  std::memcpy(dst, &src, sizeof(T));
}

/// Phase A register tile of eliminate_columns: V accumulators of T (V *
/// kLanes<T> consecutive trailing rows) for each of four panel columns, held
/// in registers across every k < `k_end`. `ct` is the column-major factor
/// (row k = column k of L), `row` the first trailing row, `col` the first of
/// the four panel columns, `s` the tile's entry in the stripe of column
/// `col` (stripes are `m` apart). Element (i, j) takes
/// s - l(i,k) * l(j,k) for k ascending — the textbook elimination's chain.
template <class T, std::size_t V>
[[gnu::always_inline]] inline void tail_tile(const double* ct, std::size_t n,
                                             std::size_t k_end,
                                             std::size_t row, std::size_t col,
                                             double* s, std::size_t m) {
  constexpr std::size_t L = kLanes<T>;
  constexpr std::size_t C = 4;
  T acc[C][V];
  #pragma GCC unroll 8
  for (std::size_t c = 0; c < C; ++c) {
    #pragma GCC unroll 8
    for (std::size_t u = 0; u < V; ++u) load(acc[c][u], s + c * m + u * L);
  }
  for (std::size_t k = 0; k < k_end; ++k) {
    const double* ck = ct + k * n;
    T t[V];
    #pragma GCC unroll 8
    for (std::size_t u = 0; u < V; ++u) load(t[u], ck + row + u * L);
    #pragma GCC unroll 8
    for (std::size_t c = 0; c < C; ++c) {
      const double coef = ck[col + c];
      #pragma GCC unroll 8
      for (std::size_t u = 0; u < V; ++u) acc[c][u] = acc[c][u] - t[u] * coef;
    }
  }
  #pragma GCC unroll 8
  for (std::size_t c = 0; c < C; ++c) {
    #pragma GCC unroll 8
    for (std::size_t u = 0; u < V; ++u) store(s + c * m + u * L, acc[c][u]);
  }
}

/// Column-major elimination core of CholeskyFactor::compute(). Returns false
/// when `a` is not positive definite to working precision. `ct` is an
/// uninitialized n*n row-major buffer; row k holds column k of L on exit
/// (entries below the diagonal of L, i.e. ct[k*n + i] with i >= k, are
/// written; the rest is never touched).
PPAT_SIMD_CLONES
bool eliminate_columns(const Matrix& a, double* const ct) {
  const std::size_t n = a.rows();
  constexpr std::size_t P = 8;  // panel width
  Vector sbuf(P * n);           // tail accumulators, one stripe per column
  double w[P][P];               // panel diagonal-block accumulators
  for (std::size_t j0 = 0; j0 < n; j0 += P) {
    const std::size_t j1 = std::min(j0 + P, n);
    const std::size_t p = j1 - j0;
    const std::size_t m = n - j1;
    // Seed accumulators from rows of `a` (symmetric, so row j IS column j —
    // contiguous loads instead of a strided column gather).
    for (std::size_t q = 0; q < p; ++q) {
      const double* aj = a.row(j0 + q).data();
      for (std::size_t r = q; r < p; ++r) w[q][r] = aj[j0 + r];
      double* __restrict sq = sbuf.data() + q * m;
      for (std::size_t i = 0; i < m; ++i) sq[i] = aj[j1 + i];
    }
    // Phase A: contributions of the already-factored columns k < j0, in
    // ascending k for every element. The diagonal block takes them one k at
    // a time.
    for (std::size_t k = 0; k < j0; ++k) {
      const double* ck = ct + k * n;
      for (std::size_t q = 0; q < p; ++q) {
        const double c = ck[j0 + q];
        for (std::size_t r = q; r < p; ++r) w[q][r] -= c * ck[j0 + r];
      }
    }
    // The trailing rows go in register tiles of 8 rows x 4 panel columns
    // (then 4 rows, then single rows): a tile's 32 accumulators stay in
    // registers for the whole k sweep, so each ct entry is loaded once per
    // tile instead of once per multiply-subtract. Trailing rows exist only
    // when the panel is full (p == P).
    double* const s = sbuf.data();
    std::size_t t = 0;
    for (; t + 2 * kLanes<Vec4> <= m; t += 2 * kLanes<Vec4>) {
      for (std::size_t q0 = 0; q0 < P; q0 += 4) {
        tail_tile<Vec4, 2>(ct, n, j0, j1 + t, j0 + q0, s + q0 * m + t, m);
      }
    }
    for (; t + kLanes<Vec4> <= m; t += kLanes<Vec4>) {
      for (std::size_t q0 = 0; q0 < P; q0 += 4) {
        tail_tile<Vec4, 1>(ct, n, j0, j1 + t, j0 + q0, s + q0 * m + t, m);
      }
    }
    for (; t < m; ++t) {
      for (std::size_t q0 = 0; q0 < P; q0 += 4) {
        tail_tile<double, 1>(ct, n, j0, j1 + t, j0 + q0, s + q0 * m + t, m);
      }
    }
    // Phase B: factorize the panel itself. After column j0+q is finalized its
    // contribution is immediately subtracted from the later panel columns
    // (right-looking within the panel), which preserves the ascending-k order
    // of every remaining element's chain.
    for (std::size_t q = 0; q < p; ++q) {
      const std::size_t j = j0 + q;
      const double diag = w[q][q];
      if (!(diag > 0.0) || !std::isfinite(diag)) return false;
      const double ljj = std::sqrt(diag);
      const double inv = 1.0 / ljj;
      double* __restrict cj = ct + j * n;
      cj[j] = ljj;
      for (std::size_t r = q + 1; r < p; ++r) cj[j0 + r] = w[q][r] * inv;
      double* __restrict sq = sbuf.data() + q * m;
      for (std::size_t i = 0; i < m; ++i) cj[j1 + i] = sq[i] * inv;
      for (std::size_t q2 = q + 1; q2 < p; ++q2) {
        const double c = cj[j0 + q2];
        for (std::size_t r = q2; r < p; ++r) w[q2][r] -= cj[j0 + r] * c;
        double* __restrict s2 = sbuf.data() + q2 * m;
        const double* __restrict tj = cj + j1;
        for (std::size_t i = 0; i < m; ++i) s2[i] -= tj[i] * c;
      }
    }
  }
  return true;
}

/// Forward-solve register tile: rows [i0, i0 + R) of V * kLanes<T>
/// consecutive columns; `v` points at the tile's first column in row 0 of
/// the row-major right-hand sides (`ld` doubles per row), whose rows above
/// i0 are already solved. Every element takes b - l(i,k) * v(k) for k
/// ascending, skipping exact-zero l(i,k) (the coefficient is shared by all
/// lanes, so the skip is per element exact), then one multiply by the
/// reciprocal diagonal — the sequence of extend_solve_lower.
template <class T, std::size_t R, std::size_t V>
[[gnu::always_inline]] inline void solve_tile(const Matrix& l, double* v,
                                              std::size_t ld,
                                              std::size_t i0) {
  constexpr std::size_t L = kLanes<T>;
  T acc[R][V];
  const double* lr[R];
  #pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    lr[r] = l.row(i0 + r).data();
    #pragma GCC unroll 8
    for (std::size_t u = 0; u < V; ++u) {
      load(acc[r][u], v + (i0 + r) * ld + u * L);
    }
  }
  for (std::size_t k = 0; k < i0; ++k) {
    T x[V];
    #pragma GCC unroll 8
    for (std::size_t u = 0; u < V; ++u) load(x[u], v + k * ld + u * L);
    #pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const double lik = lr[r][k];
      if (lik == 0.0) continue;
      #pragma GCC unroll 8
      for (std::size_t u = 0; u < V; ++u) acc[r][u] = acc[r][u] - x[u] * lik;
    }
  }
  // The tile's own triangle: row r takes rows i0..i0+r-1 (still ascending
  // k) once they are final.
  #pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    #pragma GCC unroll 8
    for (std::size_t r2 = 0; r2 < r; ++r2) {
      const double lik = lr[r][i0 + r2];
      if (lik == 0.0) continue;
      #pragma GCC unroll 8
      for (std::size_t u = 0; u < V; ++u) {
        acc[r][u] = acc[r][u] - acc[r2][u] * lik;
      }
    }
    const double inv = 1.0 / lr[r][i0 + r];
    #pragma GCC unroll 8
    for (std::size_t u = 0; u < V; ++u) acc[r][u] = acc[r][u] * inv;
  }
  #pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    #pragma GCC unroll 8
    for (std::size_t u = 0; u < V; ++u) {
      store(v + (i0 + r) * ld + u * L, acc[r][u]);
    }
  }
}

/// Every row of the V * kLanes<T> columns at `v`: 4-row tiles from the
/// top, then one tile for the last 1-3 rows.
template <class T, std::size_t V>
[[gnu::always_inline]] inline void solve_column_tile(const Matrix& l,
                                                     double* v,
                                                     std::size_t ld) {
  const std::size_t n = l.rows();
  std::size_t i0 = 0;
  for (; i0 + 4 <= n; i0 += 4) solve_tile<T, 4, V>(l, v, ld, i0);
  switch (n - i0) {
    case 3:
      solve_tile<T, 3, V>(l, v, ld, i0);
      break;
    case 2:
      solve_tile<T, 2, V>(l, v, ld, i0);
      break;
    case 1:
      solve_tile<T, 1, V>(l, v, ld, i0);
      break;
    default:
      break;
  }
}

/// Solves L V = B in place for columns [j0, j1) of `v` (which holds B), one
/// column tile at a time: 8 columns, then 4, then single columns. A tile's
/// n x 8 slice of V stays cache-resident while L streams past it once.
PPAT_SIMD_CLONES
void forward_solve_columns(const Matrix& l, Matrix& v, std::size_t j0,
                           std::size_t j1) {
  double* const base = v.data().data();
  const std::size_t ld = v.cols();
  std::size_t j = j0;
  for (; j + 2 * kLanes<Vec4> <= j1; j += 2 * kLanes<Vec4>) {
    solve_column_tile<Vec4, 2>(l, base + j, ld);
  }
  for (; j + kLanes<Vec4> <= j1; j += kLanes<Vec4>) {
    solve_column_tile<Vec4, 1>(l, base + j, ld);
  }
  for (; j < j1; ++j) solve_column_tile<double, 1>(l, base + j, ld);
}

}  // namespace

std::optional<CholeskyFactor> CholeskyFactor::compute(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  // Work in a column-major factor: row k of the ct buffer holds column k of
  // L. The reference elimination is latency-bound — each element's
  // accumulator is a serial dependence chain that cannot be reassociated
  // without changing the rounding. eliminate_columns instead updates many
  // elements at once in vector register tiles, each element's chain still in
  // ascending-k order — exactly the reference sequence — so the factor is
  // bit-identical, at several times the throughput.
  const auto ct = std::make_unique_for_overwrite<double[]>(n * n);
  if (!eliminate_columns(a, ct.get())) return std::nullopt;
  // Transpose back to the row-major lower factor the solves expect
  // (blocked: both sides of a block stay cache-resident).
  Matrix l(n, n);
  constexpr std::size_t kBlock = 32;
  for (std::size_t ib = 0; ib < n; ib += kBlock) {
    const std::size_t imax = std::min(n, ib + kBlock);
    for (std::size_t jb = 0; jb <= ib; jb += kBlock) {
      for (std::size_t i = ib; i < imax; ++i) {
        double* li = l.row(i).data();
        const std::size_t jmax = std::min(i + 1, jb + kBlock);
        for (std::size_t j = jb; j < jmax; ++j) li[j] = ct[j * n + i];
      }
    }
  }
  return CholeskyFactor(std::move(l), 0.0);
}

std::optional<CholeskyFactor> CholeskyFactor::compute_with_jitter(
    const Matrix& a, double initial_jitter, double max_jitter) {
  assert(a.rows() == a.cols());
  double jitter = initial_jitter;
  for (;;) {
    std::optional<CholeskyFactor> f;
    if (jitter > 0.0) {
      Matrix aj = a;
      aj.add_to_diagonal(jitter);
      f = compute(aj);
    } else {
      // The common case needs no diagonal shift; factor `a` directly and
      // skip the O(n^2) copy.
      f = compute(a);
    }
    if (f) {
      f->jitter_ = jitter;
      return f;
    }
    if (jitter >= max_jitter) return std::nullopt;
    // Scale the first jitter to the matrix magnitude so tiny-kernel problems
    // do not need many escalation rounds.
    if (jitter == 0.0) {
      double max_diag = 0.0;
      for (std::size_t i = 0; i < a.rows(); ++i) {
        max_diag = std::max(max_diag, std::fabs(a(i, i)));
      }
      jitter = std::max(1e-10, 1e-10 * max_diag);
    } else {
      jitter *= 10.0;
    }
    if (jitter > max_jitter) jitter = max_jitter;
  }
}

std::optional<CholeskyFactor> CholeskyFactor::compute_with_adaptive_jitter(
    const Matrix& a, double rel_cap, double abs_cap) {
  assert(a.rows() == a.cols());
  double max_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    max_diag = std::max(max_diag, std::fabs(a(i, i)));
  }
  const double max_jitter = std::max(abs_cap, rel_cap * max_diag);
  auto f = compute_with_jitter(a, 0.0, max_jitter);
  if (f && f->jitter_used() > 0.0) {
    PPAT_WARN << "Cholesky factorization of " << a.rows() << "x" << a.cols()
              << " matrix needed diagonal jitter " << f->jitter_used()
              << " (max|diag| = " << max_diag
              << "); revealed points may be nearly duplicate";
  }
  return f;
}

Vector CholeskyFactor::solve_lower(const Vector& b) const {
  const std::size_t n = size();
  assert(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const auto li = l_.row(i);
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  return y;
}

Vector CholeskyFactor::solve_upper(const Vector& b) const {
  const std::size_t n = size();
  assert(b.size() == n);
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
    x[ii] = s / l_(ii, ii);
  }
  return x;
}

Vector CholeskyFactor::solve(const Vector& b) const {
  return solve_upper(solve_lower(b));
}

Matrix CholeskyFactor::solve(const Matrix& b) const {
  assert(b.rows() == size());
  Matrix x(b.rows(), b.cols());
  Vector col(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    Vector sol = solve(col);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = sol[i];
  }
  return x;
}

Matrix CholeskyFactor::solve_lower_multi(const Matrix& b) const {
  const std::size_t n = size();
  assert(b.rows() == n);
  const std::size_t m = b.cols();
  Matrix v = b;
  // Columns are independent forward substitutions, so they partition into
  // contiguous blocks with no cross-block data flow: each element's update
  // sequence is identical for any partition (bit-identical results).
  auto solve_columns = [&](std::size_t j0, std::size_t j1) {
    forward_solve_columns(l_, v, j0, j1);
  };
  // Threshold: a block must amortize the fork/join; 32 columns of an O(n^2)
  // substitution is comfortably past that for the n >= 64 systems GP
  // prediction produces.
  if (n * m >= 16384 && m >= 64) {
    common::parallel_for_blocks(0, m, solve_columns, 32);
  } else {
    solve_columns(0, m);
  }
  return v;
}

void CholeskyFactor::extend_solve_lower(Vector& y,
                                        std::span<const double> b_tail) const {
  const std::size_t old = y.size();
  const std::size_t rows = old + b_tail.size();
  assert(rows <= size());
  y.reserve(rows);
  for (std::size_t i = old; i < rows; ++i) {
    const auto li = l_.row(i);
    double acc = b_tail[i - old];
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      if (lik == 0.0) continue;
      acc -= lik * y[k];
    }
    const double inv = 1.0 / li[i];
    y.push_back(acc * inv);
  }
}

bool CholeskyFactor::append_row(std::span<const double> k_new, double k_self) {
  const std::size_t n = size();
  assert(k_new.size() == n);
  // New row of L: forward substitution L row = k_new, replicated with the
  // exact operation order of compute() so the result is bit-identical to a
  // full re-factorization of the bordered matrix.
  Vector row(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = k_new[j];
    const auto lj = l_.row(j);
    for (std::size_t k = 0; k < j; ++k) s -= row[k] * lj[k];
    const double inv = 1.0 / lj[j];
    row[j] = s * inv;
  }
  double diag = k_self;
  for (std::size_t k = 0; k < n; ++k) diag -= row[k] * row[k];
  if (!(diag > 0.0) || !std::isfinite(diag)) return false;

  Matrix grown(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = l_.row(i);
    double* dst = grown.row(i).data();
    for (std::size_t j = 0; j <= i; ++j) dst[j] = src[j];
  }
  double* last = grown.row(n).data();
  for (std::size_t j = 0; j < n; ++j) last[j] = row[j];
  last[n] = std::sqrt(diag);
  l_ = std::move(grown);
  return true;
}

double CholeskyFactor::log_det() const {
  double s = 0.0;
  for (std::size_t i = 0; i < size(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

Matrix CholeskyFactor::inverse() const {
  return solve(Matrix::identity(size()));
}

}  // namespace ppat::linalg
