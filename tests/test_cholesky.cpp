#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "reference_cholesky.hpp"

namespace ppat::linalg {
namespace {

/// A * B, the textbook triple loop.
Matrix product(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      for (std::size_t k = 0; k < a.cols(); ++k) out(i, j) += a(i, k) * b(k, j);
    }
  }
  return out;
}

/// A * v.
Vector product(const Matrix& a, const Vector& v) {
  Vector out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) out[i] = dot(a.row(i), v);
  return out;
}

/// Solves the general square system A x = b by partially pivoted LU, the
/// independent oracle Cholesky::solve is cross-checked against. Returns
/// nullopt if A is singular to working precision.
std::optional<Vector> solve_lu(Matrix a, Vector b) {
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

Matrix random_spd(std::size_t n, common::Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  }
  Matrix spd = product(a, a.transposed());
  spd.add_to_diagonal(static_cast<double>(n));  // well-conditioned
  return spd;
}

/// Bit patterns, so that -0.0 differs from +0.0 and NaNs compare.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// B (n x m) solved column by column with extend_solve_lower: the bitwise
/// reference of solve_lower_multi.
Matrix solve_by_columns(const CholeskyFactor& f, const Matrix& b) {
  Matrix v(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    Vector col(b.rows());
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    Vector y;
    f.extend_solve_lower(y, col);
    for (std::size_t i = 0; i < b.rows(); ++i) v(i, j) = y[i];
  }
  return v;
}

void expect_same_bits(const Matrix& got, const Matrix& want,
                      const char* what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(bits(got(i, j)), bits(want(i, j)))
          << what << " " << want.rows() << "x" << want.cols() << " (" << i
          << "," << j << "): " << got(i, j) << " vs " << want(i, j);
    }
  }
}

TEST(Cholesky, ReconstructsMatrix) {
  common::Rng rng(1);
  const Matrix a = random_spd(8, rng);
  const auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  const Matrix l = f->lower();
  EXPECT_LT(Matrix::max_abs_diff(product(l, l.transposed()), a), 1e-9);
}

TEST(Cholesky, SolveMatchesLu) {
  common::Rng rng(2);
  const Matrix a = random_spd(10, rng);
  Vector b(10);
  for (auto& x : b) x = rng.normal();
  const auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  const Vector x_chol = f->solve(b);
  const auto x_lu = solve_lu(a, b);
  ASSERT_TRUE(x_lu.has_value());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(x_chol[i], (*x_lu)[i], 1e-8);
  }
}

TEST(Cholesky, SolveResidualIsSmall) {
  common::Rng rng(3);
  const Matrix a = random_spd(20, rng);
  Vector b(20);
  for (auto& x : b) x = rng.normal();
  const auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  const Vector x = f->solve(b);
  const Vector r = product(a, x);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(r[i], b[i], 1e-8);
}

TEST(Cholesky, LogDetMatchesKnown) {
  // diag(4, 9): det = 36, log det = log 36.
  const Matrix a = {{4.0, 0.0}, {0.0, 9.0}};
  const auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(f->log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, RejectsNonPositiveDefinite) {
  const Matrix a = {{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor::compute(a).has_value());
}

TEST(Cholesky, JitterRescuesSemidefinite) {
  // Rank-1 matrix: [1 1; 1 1] is PSD but not PD.
  const Matrix a = {{1.0, 1.0}, {1.0, 1.0}};
  const auto f = CholeskyFactor::compute_with_jitter(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_GT(f->jitter_used(), 0.0);
}

TEST(Cholesky, JitterNotUsedWhenUnneeded) {
  common::Rng rng(4);
  const Matrix a = random_spd(6, rng);
  const auto f = CholeskyFactor::compute_with_jitter(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->jitter_used(), 0.0);
}

TEST(Cholesky, JitterGivesUpOnIndefinite) {
  const Matrix a = {{1.0, 5.0}, {5.0, 1.0}};  // strongly indefinite
  EXPECT_FALSE(CholeskyFactor::compute_with_jitter(a, 0.0, 1e-4).has_value());
}

TEST(Cholesky, SolveLowerAndUpperAreInverses) {
  common::Rng rng(5);
  const Matrix a = random_spd(7, rng);
  const auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  Vector b(7);
  for (auto& x : b) x = rng.normal();
  // L (L^-1 b) == b
  const Vector y = f->solve_lower(b);
  const Vector back = product(f->lower(), y);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(Cholesky, SolveLowerMultiMatchesSingle) {
  // 9 rows x 11 columns: two 4-row tiles and a 1-row remainder, over an
  // 8-column tile and three single columns.
  common::Rng rng(6);
  const Matrix a = random_spd(9, rng);
  const auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  Matrix b(9, 11);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 11; ++j) b(i, j) = rng.normal();
  }
  const Matrix v = f->solve_lower_multi(b);
  expect_same_bits(v, solve_by_columns(*f, b), "solve_lower_multi");
  // solve_lower divides by the diagonal instead of multiplying by its
  // reciprocal, so it agrees to rounding only.
  for (std::size_t j = 0; j < 11; ++j) {
    Vector col(9);
    for (std::size_t i = 0; i < 9; ++i) col[i] = b(i, j);
    const Vector single = f->solve_lower(col);
    for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(v(i, j), single[i], 1e-10);
  }
}

TEST(Cholesky, SolveLowerMultiBitIdenticalAtEveryTileRemainder) {
  // Widths cover the 8-column tile, the 4-column tile and 1-3 single
  // columns in every combination; the row counts cover 4-row tiles with a
  // remainder of 0-3 rows.
  common::Rng rng(13);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 38u}) {
    const auto f = CholeskyFactor::compute(random_spd(n, rng));
    ASSERT_TRUE(f.has_value());
    for (std::size_t m :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u, 14u, 15u,
          16u, 17u, 63u, 64u, 65u}) {
      Matrix b(n, m);
      for (std::size_t i = 0; i < n; ++i) {
        for (double& x : b.row(i)) x = rng.normal();
      }
      expect_same_bits(f->solve_lower_multi(b), solve_by_columns(*f, b),
                       "solve_lower_multi");
    }
  }
}

TEST(Cholesky, SolveLowerMultiKeepsTheZeroCoefficientSkip) {
  // Block-diagonal A: L has exact zeros between the blocks. Infinite
  // right-hand sides in the first block make its solution non-finite; the
  // second block never multiplies by those entries (0 * inf would be NaN),
  // so it stays finite — in the per-column reference and in every tile.
  common::Rng rng(14);
  const std::size_t n1 = 5, n = 23, m = 21;
  const Matrix s1 = random_spd(n1, rng);
  const Matrix s2 = random_spd(n - n1, rng);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t j = 0; j < n1; ++j) a(i, j) = s1(i, j);
  }
  for (std::size_t i = n1; i < n; ++i) {
    for (std::size_t j = n1; j < n; ++j) a(i, j) = s2(i - n1, j - n1);
  }
  const auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->lower()(n1, 0), 0.0);
  Matrix b(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& x : b.row(i)) x = rng.normal();
  }
  for (std::size_t j = 0; j < m; j += 2) {
    b(0, j) = std::numeric_limits<double>::infinity();
  }
  const Matrix v = f->solve_lower_multi(b);
  expect_same_bits(v, solve_by_columns(*f, b), "solve_lower_multi");
  for (std::size_t i = n1; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_TRUE(std::isfinite(v(i, j))) << i << "," << j;
    }
  }
}

TEST(Cholesky, InverseTimesMatrixIsIdentity) {
  common::Rng rng(7);
  const Matrix a = random_spd(5, rng);
  const auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  const Matrix inv = f->inverse();
  EXPECT_LT(Matrix::max_abs_diff(product(a, inv), Matrix::identity(5)), 1e-8);
}

TEST(Cholesky, UnrolledComputeMatchesReferenceBitwise) {
  // The tiled elimination must be a pure scheduling change: same
  // per-element operation sequence as the textbook loop, so bit-identical
  // factors at every size — covering partial last panels, 8-row and 4-row
  // tiles and 1-3 single trailing rows.
  common::Rng rng(12);
  for (std::size_t n : {1u,  2u,  3u,  4u,  5u,  6u,  7u,  8u,   9u,   10u,
                        11u, 12u, 13u, 14u, 15u, 16u, 17u, 31u,  32u,  33u,
                        63u, 64u, 65u, 200u, 271u, 460u}) {
    const Matrix a = random_spd(n, rng);
    const auto fast = CholeskyFactor::compute(a);
    const auto ref = testing::reference_cholesky(a);
    ASSERT_TRUE(fast.has_value());
    ASSERT_TRUE(ref.has_value());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        ASSERT_EQ(bits(fast->lower()(i, j)), bits((*ref)(i, j)))
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Cholesky, UnrolledComputeRejectsSameMatrices) {
  const Matrix indefinite = {{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_FALSE(CholeskyFactor::compute(indefinite).has_value());
  EXPECT_FALSE(testing::reference_cholesky(indefinite).has_value());
}

TEST(CholeskyAppend, MatchesFullFactorizationBitwise) {
  common::Rng rng(8);
  const std::size_t n = 12;
  // Leading principal submatrices of an SPD matrix are SPD, so factoring the
  // leading (n-1) block and appending the last row must land exactly where a
  // full factorization of the whole matrix does.
  const Matrix full = random_spd(n, rng);
  Matrix lead(n - 1, n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = 0; j + 1 < n; ++j) lead(i, j) = full(i, j);
  }
  auto f = CholeskyFactor::compute(lead);
  ASSERT_TRUE(f.has_value());
  Vector k_new(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) k_new[i] = full(i, n - 1);
  ASSERT_TRUE(f->append_row(k_new, full(n - 1, n - 1)));
  EXPECT_DOUBLE_EQ(f->jitter_used(), 0.0);

  const auto g = CholeskyFactor::compute(full);
  ASSERT_TRUE(g.has_value());
  ASSERT_EQ(f->size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      // Bit-identical, not merely close: append_row replicates compute()'s
      // exact floating-point operation order.
      EXPECT_EQ(f->lower()(i, j), g->lower()(i, j)) << i << "," << j;
    }
  }
}

TEST(CholeskyAppend, RepeatedAppendsStayBitIdentical) {
  common::Rng rng(9);
  const std::size_t n = 10;
  const Matrix full = random_spd(n, rng);
  Matrix lead(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) lead(i, j) = full(i, j);
  }
  auto f = CholeskyFactor::compute(lead);
  ASSERT_TRUE(f.has_value());
  for (std::size_t m = 4; m < n; ++m) {
    Vector k_new(m);
    for (std::size_t i = 0; i < m; ++i) k_new[i] = full(i, m);
    ASSERT_TRUE(f->append_row(k_new, full(m, m))) << "append " << m;
  }
  const auto g = CholeskyFactor::compute(full);
  ASSERT_TRUE(g.has_value());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(f->lower()(i, j), g->lower()(i, j)) << i << "," << j;
    }
  }
}

TEST(CholeskyAppend, RejectsNonPositiveBorderAndLeavesFactorIntact) {
  common::Rng rng(10);
  const Matrix a = random_spd(6, rng);
  auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  const Matrix before = f->lower();
  // Duplicating an existing column makes the bordered matrix singular: the
  // Schur complement is exactly zero, so the new pivot is not positive.
  Vector dup(6);
  for (std::size_t i = 0; i < 6; ++i) dup[i] = a(i, 2);
  EXPECT_FALSE(f->append_row(dup, a(2, 2)));
  ASSERT_EQ(f->size(), 6u);
  EXPECT_EQ(Matrix::max_abs_diff(f->lower(), before), 0.0);
}

TEST(CholeskyAppend, FailedAppendFallsBackToJitteredRefactorization) {
  // The GP fallback path: when append_row refuses the border, re-factorize
  // the full bordered matrix with jitter escalation.
  common::Rng rng(11);
  const Matrix a = random_spd(5, rng);
  auto f = CholeskyFactor::compute(a);
  ASSERT_TRUE(f.has_value());
  // Duplicate column 0 but shave the diagonal: the new pivot is -1e-9 up to
  // rounding noise (~1e-14), so the append must refuse deterministically,
  // while a ~1e-9 jitter restores definiteness.
  Vector dup(5);
  for (std::size_t i = 0; i < 5; ++i) dup[i] = a(i, 0);
  const double k_self = a(0, 0) - 1e-9;
  ASSERT_FALSE(f->append_row(dup, k_self));

  Matrix bordered(6, 6);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) bordered(i, j) = a(i, j);
    bordered(i, 5) = dup[i];
    bordered(5, i) = dup[i];
  }
  bordered(5, 5) = k_self;
  const auto g = CholeskyFactor::compute_with_jitter(bordered);
  ASSERT_TRUE(g.has_value());
  EXPECT_GT(g->jitter_used(), 0.0);
  // Appending onto a jittered factor is the caller's responsibility to avoid;
  // the contract is documented, and GP code re-factorizes instead.
}

TEST(Cholesky, AdaptiveJitterIsBitIdenticalWhenNoJitterIsNeeded) {
  common::Rng rng(9);
  const Matrix a = random_spd(10, rng);
  const auto plain = CholeskyFactor::compute(a);
  const auto adaptive = CholeskyFactor::compute_with_adaptive_jitter(a);
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(adaptive.has_value());
  EXPECT_EQ(adaptive->jitter_used(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(adaptive->lower()(i, j), plain->lower()(i, j))
          << "entry (" << i << "," << j << ")";
    }
  }
}

TEST(Cholesky, AdaptiveJitterScalesTheCapWithTheDiagonal) {
  // A large-magnitude Gram matrix made slightly indefinite (near-duplicate
  // rows whose rounding error exceeds the fixed cap): its most-negative
  // eigenvalue is about -0.5, so no jitter within the fixed 1e-2 absolute
  // cap can fix it. The adaptive ceiling (rel_cap * max|diag|) must.
  const double scale = 1e8;
  Matrix a(3, 3);
  a(0, 0) = scale;
  a(1, 1) = scale - 1.0;
  a(0, 1) = a(1, 0) = scale;
  a(2, 2) = scale;
  EXPECT_FALSE(CholeskyFactor::compute_with_jitter(a).has_value());
  const auto f = CholeskyFactor::compute_with_adaptive_jitter(a);
  ASSERT_TRUE(f.has_value());
  EXPECT_GT(f->jitter_used(), 1e-2);
  EXPECT_LE(f->jitter_used(), 1e-4 * scale);
}

TEST(SolveLu, SingularReturnsNullopt) {
  const Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(solve_lu(a, {1.0, 1.0}).has_value());
}

TEST(SolveLu, PivotingHandlesZeroDiagonal) {
  const Matrix a = {{0.0, 1.0}, {1.0, 0.0}};
  const auto x = solve_lu(a, {2.0, 3.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_DOUBLE_EQ((*x)[0], 3.0);
  EXPECT_DOUBLE_EQ((*x)[1], 2.0);
}

}  // namespace
}  // namespace ppat::linalg
