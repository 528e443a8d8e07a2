#include "linalg/cholesky.hpp"

#include <cassert>
#include <cmath>
#include <memory>

#include "common/log.hpp"
#include "common/parallel.hpp"

namespace ppat::linalg {
namespace {

/// Column-major elimination core of CholeskyFactor::compute(). Returns false
/// when `a` is not positive definite to working precision. `ct` is an
/// uninitialized n*n row-major buffer; row k holds column k of L on exit
/// (entries below the diagonal of L, i.e. ct[k*n + i] with i >= k, are
/// written; the rest is never touched).
///
/// target_clones: the sweeps are plain elementwise mul/sub loops, so the
/// compiler may emit them at any vector width without changing a single
/// rounding — the AVX2/AVX-512 clones (runtime-dispatched) just process more
/// lanes per instruction. AVX-512F carries EVEX fused multiply-add, so this
/// file is compiled with -ffp-contract=off (see CMakeLists.txt): contraction
/// would fuse the mul/sub chains and change roundings. TSan builds take the
/// default clone only: GCC 12's libtsan segfaults before main on the clones'
/// ifunc resolvers.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
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
    // Phase A: contributions of columns k < j0. Each ct row is streamed once
    // per PANEL (serving all p columns) rather than once per column, and its
    // p coefficients ct[k*n + j0..j1) share a cache line — that is the whole
    // win over the column-at-a-time sweep. Four k-steps are fused per pass so
    // the accumulators are loaded/stored once per four multiply-subtracts.
    // Every element still subtracts its l(i,k) * l(j,k) terms with k strictly
    // ascending, exactly the compute_reference() chain.
    std::size_t k = 0;
    for (; k + 4 <= j0; k += 4) {
      const double* __restrict k0 = ct + k * n;
      const double* __restrict k1 = ct + (k + 1) * n;
      const double* __restrict k2 = ct + (k + 2) * n;
      const double* __restrict k3 = ct + (k + 3) * n;
      for (std::size_t q = 0; q < p; ++q) {
        const double c0 = k0[j0 + q], c1 = k1[j0 + q];
        const double c2 = k2[j0 + q], c3 = k3[j0 + q];
        for (std::size_t r = q; r < p; ++r) {
          w[q][r] = (((w[q][r] - c0 * k0[j0 + r]) - c1 * k1[j0 + r]) -
                     c2 * k2[j0 + r]) -
                    c3 * k3[j0 + r];
        }
      }
      const double* __restrict t0 = k0 + j1;
      const double* __restrict t1 = k1 + j1;
      const double* __restrict t2 = k2 + j1;
      const double* __restrict t3 = k3 + j1;
      // Two panel columns per pass: the four row loads are shared between the
      // two accumulator streams (each element's own chain is untouched).
      std::size_t q = 0;
      for (; q + 2 <= p; q += 2) {
        const double c00 = k0[j0 + q], c01 = k1[j0 + q];
        const double c02 = k2[j0 + q], c03 = k3[j0 + q];
        const double c10 = k0[j0 + q + 1], c11 = k1[j0 + q + 1];
        const double c12 = k2[j0 + q + 1], c13 = k3[j0 + q + 1];
        double* __restrict s0 = sbuf.data() + q * m;
        double* __restrict s1 = sbuf.data() + (q + 1) * m;
        for (std::size_t i = 0; i < m; ++i) {
          const double a0 = t0[i], a1 = t1[i], a2 = t2[i], a3 = t3[i];
          s0[i] = (((s0[i] - a0 * c00) - a1 * c01) - a2 * c02) - a3 * c03;
          s1[i] = (((s1[i] - a0 * c10) - a1 * c11) - a2 * c12) - a3 * c13;
        }
      }
      for (; q < p; ++q) {
        const double c0 = k0[j0 + q], c1 = k1[j0 + q];
        const double c2 = k2[j0 + q], c3 = k3[j0 + q];
        double* __restrict sq = sbuf.data() + q * m;
        for (std::size_t i = 0; i < m; ++i) {
          sq[i] =
              (((sq[i] - t0[i] * c0) - t1[i] * c1) - t2[i] * c2) - t3[i] * c3;
        }
      }
    }
    for (; k < j0; ++k) {
      const double* __restrict ck = ct + k * n;
      for (std::size_t q = 0; q < p; ++q) {
        const double c = ck[j0 + q];
        for (std::size_t r = q; r < p; ++r) w[q][r] -= c * ck[j0 + r];
        double* __restrict sq = sbuf.data() + q * m;
        const double* __restrict tk = ck + j1;
        for (std::size_t i = 0; i < m; ++i) sq[i] -= tk[i] * c;
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

}  // namespace

std::optional<CholeskyFactor> CholeskyFactor::compute(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  // Work in a column-major factor: row k of the ct buffer holds column k of
  // L. The reference elimination is latency-bound — each element's accumulator is a
  // serial dependence chain that cannot be reassociated without changing the
  // rounding. Reordering the loops into panel-wide elementwise streaming
  // sweeps (see eliminate_columns) keeps every element's chain in ascending-k
  // order — exactly the compute_reference() sequence — while letting the
  // compiler vectorize across elements. Bit-identical factors, several times
  // the throughput.
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

std::optional<CholeskyFactor> CholeskyFactor::compute_reference(
    const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix l(n, n);
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
    for (std::size_t i = 0; i < n; ++i) {
      double* vi = v.row(i).data();
      const auto li = l_.row(i);
      for (std::size_t k = 0; k < i; ++k) {
        const double lik = li[k];
        if (lik == 0.0) continue;
        const double* vk = v.row(k).data();
        for (std::size_t j = j0; j < j1; ++j) vi[j] -= lik * vk[j];
      }
      const double inv = 1.0 / li[i];
      for (std::size_t j = j0; j < j1; ++j) vi[j] *= inv;
    }
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

std::optional<Vector> solve_lu(Matrix a, Vector b) {
  assert(a.rows() == a.cols() && b.size() == a.rows());
  const std::size_t n = a.rows();
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::fabs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(a(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) return std::nullopt;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(col, c));
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) * inv;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) s -= a(ii, c) * x[c];
    x[ii] = s / a(ii, ii);
  }
  return x;
}

}  // namespace ppat::linalg
