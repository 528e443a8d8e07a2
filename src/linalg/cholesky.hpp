// Cholesky factorization and SPD solves — the numerical core of GP inference.
//
// GP kernel matrices are symmetric positive definite in exact arithmetic but
// frequently lose definiteness to rounding when points nearly coincide, so
// the public entry point `CholeskyFactor::compute_with_jitter` retries with
// an escalating diagonal jitter (standard GP practice) and reports the jitter
// it needed. Failures are reported via a status flag rather than exceptions:
// hyper-parameter search probes many ill-conditioned candidates and must skip
// them cheaply.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace ppat::linalg {

/// Lower-triangular Cholesky factor L with A = L * L^T, plus solve helpers.
class CholeskyFactor {
 public:
  /// Factors `a` (must be square and symmetric). Only the upper triangle
  /// (including the diagonal) is read, so callers that build symmetric
  /// matrices may skip populating the strictly-lower part. Returns nullopt if
  /// `a` is not positive definite to working precision.
  ///
  /// The elimination works column-major on panels of eight columns and
  /// updates the trailing rows in vector register tiles (8 rows x 4 panel
  /// columns), with AVX-512 and AVX2 clones dispatched at runtime where
  /// available. Every element still performs exactly the textbook sequence
  /// s -= l(i,k) * l(j,k) with k ascending, no FMA contraction, then one
  /// multiply by the reciprocal diagonal, so the factor is bit-for-bit that
  /// of the scalar reference elimination (tests/reference_cholesky.hpp;
  /// asserted by tests).
  static std::optional<CholeskyFactor> compute(const Matrix& a);

  /// Factors `a + jitter*I`, escalating jitter by 10x up to `max_jitter`
  /// starting at `initial_jitter` (0 means: first try no jitter). Returns
  /// nullopt only if even the maximum jitter fails.
  static std::optional<CholeskyFactor> compute_with_jitter(
      const Matrix& a, double initial_jitter = 0.0, double max_jitter = 1e-2);

  /// compute_with_jitter with a scale-aware escalation ceiling:
  /// max(`abs_cap`, `rel_cap` * max|diag|). Long tuning runs reveal
  /// near-duplicate points whose Gram matrices can need a nugget well above
  /// the fixed 1e-2 cap on large-magnitude kernels; aborting a multi-day run
  /// on that is unacceptable, so the FINAL surrogate fit uses this entry
  /// point (hyper-parameter search probes keep the cheap fixed cap — an
  /// ill-conditioned probe is simply skipped). When factorization succeeds
  /// with no jitter the call is bit-identical to compute(); when jitter was
  /// needed, the final value is logged at warning level so drifting
  /// conditioning is visible in run logs.
  static std::optional<CholeskyFactor> compute_with_adaptive_jitter(
      const Matrix& a, double rel_cap = 1e-4, double abs_cap = 1e-2);

  std::size_t size() const { return l_.rows(); }
  const Matrix& lower() const { return l_; }
  /// Diagonal jitter that was added to make the factorization succeed.
  double jitter_used() const { return jitter_; }

  /// Solves L y = b (forward substitution).
  Vector solve_lower(const Vector& b) const;
  /// Solves L^T x = b (backward substitution).
  Vector solve_upper(const Vector& b) const;
  /// Solves A x = b via the factor.
  Vector solve(const Vector& b) const;
  /// Solves A X = B column-by-column.
  Matrix solve(const Matrix& b) const;

  /// Solves L V = B for many right-hand sides at once (B is n x m), in
  /// vector register tiles of 4 rows x 8 columns, which is what makes
  /// batched GP variance prediction affordable. Each column takes exactly
  /// extend_solve_lower's sequence, so its bits do not depend on the tiling.
  /// Column blocks run on the calling thread's pool above a size threshold;
  /// each column's arithmetic is independent of the partition, so results
  /// are bit-identical for any thread count.
  Matrix solve_lower_multi(const Matrix& b) const;

  /// Extends a forward-substitution solution of L y = b in place: `y`
  /// already holds the first y.size() rows of the solution; `b_tail` holds
  /// the next entries of b, and the call appends the matching solution rows.
  /// Each new row replicates solve_lower_multi's per-column operation
  /// sequence exactly (ascending-k accumulation, zero-coefficient skip,
  /// multiply by the reciprocal diagonal), so growing a solution row by row
  /// across append_row calls is bit-identical to re-solving the final
  /// system in one shot. With `y` empty this IS a full forward solve in
  /// solve_lower_multi's bits (solve_lower divides by the diagonal instead
  /// of multiplying by its reciprocal, which rounds differently). The
  /// gp::PosteriorCache rank-1 prediction update is built on this.
  void extend_solve_lower(Vector& y, std::span<const double> b_tail) const;

  /// Extends the factor of A (n x n) to the factor of the bordered matrix
  /// [[A, k_new], [k_new^T, k_self]] in O(n^2): the existing n x n block of
  /// L is unchanged (Cholesky is leading-minor local) and the new row is one
  /// forward substitution plus a square root. Performs the identical
  /// floating-point operations a full re-factorization would, so the
  /// resulting factor is bit-for-bit the same.
  ///
  /// Any diagonal regularization (observation noise, jitter) must already be
  /// folded into `k_new`/`k_self` by the caller; callers that factored with
  /// jitter > 0 should re-factorize from scratch instead, because a fresh
  /// factorization would restart the jitter escalation from zero.
  ///
  /// Returns false and leaves the factor unchanged when the new diagonal
  /// pivot is not positive to working precision (the bordered matrix is not
  /// positive definite); the caller must fall back to a full
  /// re-factorization with jitter.
  bool append_row(std::span<const double> k_new, double k_self);

  /// log(det(A)) = 2 * sum(log(L_ii)).
  double log_det() const;

  /// Inverse of A (used only in tests / diagnostics; prefer solve()).
  Matrix inverse() const;

 private:
  CholeskyFactor(Matrix l, double jitter) : l_(std::move(l)), jitter_(jitter) {}
  Matrix l_;
  double jitter_ = 0.0;
};

}  // namespace ppat::linalg
