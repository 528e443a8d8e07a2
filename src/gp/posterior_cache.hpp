// Cross-round posterior cache for batched GP prediction over a fixed
// candidate pool (the PAL decision loop's dominant per-round cost at scale).
//
// Legacy predict_batch costs O(m^2) per candidate per round (m training
// rows): build the cross-covariance column k_star, forward-substitute
// v = L^-1 k_star, then mean = k_star . alpha and variance = k(x,x) - v.v.
// But between hyper-parameter refits the model only ever CHANGES by rank-1
// Cholesky appends: L grows by rows, its existing entries are untouched
// (bordered extension), and the kernel is frozen. So a candidate's cached
// (k_star, v, v.v) stays a prefix of the current solution and extends in
// O(new rows) — each appended training row r contributes
//
//     v_r = (k(x_r, x) - sum_{k<r} L_rk v_k) / L_rr,
//
// exactly the next forward-substitution step, after which the variance
// accumulator just grows by v_r^2 and the mean re-dots the cached k_star
// against the fresh alpha. Per candidate per round that is O(m) instead of
// O(m^2), which is what the paper's loop needs to survive 10^5-candidate
// pools.
//
// Bit-exactness contract (tested): served means/variances are bit-identical
// to ExactGp::predict_batch on the same inputs. That holds because rebuilds
// ARE solve_lower_multi calls and every extension step replicates its
// per-column sequence — including its zero-coefficient skip and its multiply
// by the reciprocal diagonal — and every accumulator is a left fold in
// ascending row order, the exact order the batch path uses.
//
// Invalidation: ExactGp::posterior_epoch() bumps on every full
// re-factorization (refit, jitter fallback, re-fit from scratch); a bump
// discards all entries and the next predict() rebuilds them. Rebuilds go in
// panels of up to 64 candidates: one n x w cross-covariance block and one
// register-tiled CholeskyFactor::solve_lower_multi per panel instead of a
// forward solve per candidate; blocks of candidates fan out across the
// thread pool. Candidate ids absent from a predict() call are evicted — the
// tuner's alive set only ever shrinks, so an id that leaves the working set
// never returns.
//
// The cache reads only the exact-GP engine's posterior internals
// (gp::ExactGp: factor, alpha, output scale, cross_rows, prior_variance,
// posterior_epoch), so one cache type serves the plain and the transfer GP.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "gp/exact_gp.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace ppat::gp {

/// Serves either exact-GP model (GaussianProcess, TransferGaussianProcess)
/// through the engine's posterior internals.
class PosteriorCache {
 public:
  /// Posterior at candidates identified by stable `ids` (ids[c] names xs[c]
  /// across rounds). Bit-identical to model.predict_batch(xs, ...). Ids not
  /// present in this call are evicted from the cache.
  void predict(const ExactGp& model, const std::vector<std::size_t>& ids,
               const std::vector<linalg::Vector>& xs, linalg::Vector& means,
               linalg::Vector& variances) {
    const linalg::CholeskyFactor& factor = model.factor();
    const std::size_t rows = factor.size();
    const linalg::Vector& alpha = model.alpha();
    const double out_mean = model.output_mean();
    const double out_sd = model.output_sd();

    if (!has_epoch_ || epoch_ != model.posterior_epoch()) {
      for (Entry& e : entries_) e = Entry{};
      epoch_ = model.posterior_epoch();
      has_epoch_ = true;
    }
    std::size_t max_id = 0;
    for (std::size_t id : ids) max_id = std::max(max_id, id + 1);
    if (entries_.size() < max_id) entries_.resize(max_id);

    means.resize(ids.size());
    variances.resize(ids.size());
    // Candidates are independent; contiguous blocks fan out bit-stably.
    auto process = [&](std::size_t c0, std::size_t c1) {
      rebuild_stale(model, factor, ids, xs, c0, c1);
      for (std::size_t c = c0; c < c1; ++c) {
        Entry& e = entries_[ids[c]];
        if (e.v.size() < rows) extend(e, model, factor, xs[c], rows);
        double mu = 0.0;
        for (std::size_t i = 0; i < rows; ++i) mu += e.k_star[i] * alpha[i];
        means[c] = out_mean + out_sd * mu;
        const double var_std = e.kxx - e.vv;
        variances[c] = std::max(0.0, var_std) * out_sd * out_sd;
      }
    };
    if (ids.size() >= 512) {
      common::parallel_for_blocks(0, ids.size(), process, 256);
    } else {
      process(0, ids.size());
    }
    evict_absent(ids);
  }

  /// Number of live cached candidates (tests/diagnostics).
  std::size_t cached_entries() const {
    std::size_t n = 0;
    for (const Entry& e : entries_) n += e.live ? 1 : 0;
    return n;
  }

 private:
  struct Entry {
    linalg::Vector k_star;  ///< cross-covariances to training rows
    linalg::Vector v;       ///< L^-1 k_star, solve_lower_multi order
    double vv = 0.0;        ///< ascending left-fold of v_i^2
    double kxx = 0.0;       ///< prior variance k(x, x)
    bool live = false;
  };

  /// Rebuilds the stale entries among candidates [c0, c1) in panels of up
  /// to kPanel candidates: cross_rows fills an n x w block, one
  /// solve_lower_multi solves it, and the columns are scattered into the
  /// entries. A column's solve is extend_solve_lower's sequence, so a panel
  /// rebuild lands on the bits of a per-candidate one.
  void rebuild_stale(const ExactGp& model,
                     const linalg::CholeskyFactor& factor,
                     const std::vector<std::size_t>& ids,
                     const std::vector<linalg::Vector>& xs, std::size_t c0,
                     std::size_t c1) {
    constexpr std::size_t kPanel = 64;
    const std::size_t rows = factor.size();
    std::vector<std::size_t> stale;
    for (std::size_t c = c0; c < c1; ++c) {
      if (!entries_[ids[c]].live) stale.push_back(c);
    }
    for (std::size_t p0 = 0; p0 < stale.size(); p0 += kPanel) {
      const std::size_t w = std::min(kPanel, stale.size() - p0);
      linalg::Matrix block(rows, w);
      for (std::size_t j = 0; j < w; ++j) {
        Entry& e = entries_[ids[stale[p0 + j]]];
        e.k_star.resize(rows);
        model.cross_rows(xs[stale[p0 + j]], 0, rows, e.k_star.data());
        for (std::size_t i = 0; i < rows; ++i) block(i, j) = e.k_star[i];
      }
      const linalg::Matrix v = factor.solve_lower_multi(block);
      for (std::size_t j = 0; j < w; ++j) {
        Entry& e = entries_[ids[stale[p0 + j]]];
        e.v.resize(rows);
        e.vv = 0.0;
        for (std::size_t i = 0; i < rows; ++i) {
          e.v[i] = v(i, j);
          e.vv += e.v[i] * e.v[i];
        }
        e.kxx = model.prior_variance(xs[stale[p0 + j]]);
        e.live = true;
      }
    }
  }

  static void extend(Entry& e, const ExactGp& model,
                     const linalg::CholeskyFactor& factor,
                     const linalg::Vector& x, std::size_t rows) {
    const std::size_t old = e.v.size();
    e.k_star.resize(rows);
    model.cross_rows(x, old, rows, e.k_star.data() + old);
    factor.extend_solve_lower(
        e.v, std::span<const double>(e.k_star).subspan(old));
    // The v.v accumulator keeps its ascending left-fold order: old prefix
    // sum is untouched, new squares fold on in row order.
    for (std::size_t i = old; i < rows; ++i) e.vv += e.v[i] * e.v[i];
  }

  void evict_absent(const std::vector<std::size_t>& ids) {
    std::vector<std::uint8_t> requested(entries_.size(), 0);
    for (std::size_t id : ids) requested[id] = 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].live && !requested[i]) entries_[i] = Entry{};
    }
  }

  std::uint64_t epoch_ = 0;
  bool has_epoch_ = false;
  std::vector<Entry> entries_;
};

}  // namespace ppat::gp
