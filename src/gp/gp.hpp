// Standard Gaussian-process regression (paper §2.1).
//
// Targets are standardized internally (zero mean, unit variance) so kernel
// signal variances stay O(1) across QoR metrics with wildly different units
// (um^2 vs mW vs ns). Hyper-parameters — kernel log-params plus log noise
// variance — are fitted by maximizing the log marginal likelihood with
// multi-start Nelder–Mead. Factorization failures escalate through jitter
// (see linalg::CholeskyFactor) before giving up.
//
// Two performance paths keep surrogate maintenance off the tuner's critical
// path (see DESIGN.md §8 for the invariants):
//   * add_observation / add_observation_batch extend the Cholesky factor by
//     rank-1 bordering (O(n^2) per point) whenever the current factor needed
//     no jitter; the result is bit-identical to a full re-factorization.
//   * optimize_hyperparameters precomputes the NLL subset's pairwise
//     statistics once and re-evaluates only the scalar kernel map per
//     Nelder–Mead iteration for kernels that support the pairwise cache.
//
// The randomized part of a hyper-parameter refit (subset choice, restart
// perturbations) is split out as prepare_refit() so the tuner can draw the
// randomness serially — preserving the shared-RNG stream exactly — and run
// the deterministic optimization (execute_refit) on a thread pool.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"

namespace ppat::gp {

/// Posterior mean and variance at one input.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
};

struct FitOptions {
  std::size_t restarts = 2;          ///< Nelder-Mead multi-starts
  std::size_t max_evals = 80;        ///< NLL evaluations per start
  std::size_t max_points = 300;      ///< subsample cap for the NLL objective
  double min_noise_variance = 1e-6;  ///< lower clamp on fitted noise
};

/// Exact GP regressor with Gaussian observation noise.
class GaussianProcess {
 public:
  /// The randomness of one hyper-parameter refit, drawn up front: the NLL
  /// subsample and one Nelder-Mead start point per restart (starts[0] is the
  /// current hyper-parameter vector). Consuming this plan is deterministic.
  struct RefitPlan {
    std::vector<std::size_t> subset;
    linalg::Vector current;              ///< incumbent [kernel..., log noise]
    std::vector<linalg::Vector> starts;  ///< one per restart
    FitOptions options;
  };

  /// Takes ownership of the kernel. `noise_variance` is the initial value;
  /// optimize_hyperparameters() refines it.
  explicit GaussianProcess(std::unique_ptr<Kernel> kernel,
                           double noise_variance = 1e-4);

  /// Sets the training data and factorizes. Throws std::runtime_error if the
  /// kernel matrix cannot be factorized even with maximum jitter.
  void fit(std::vector<linalg::Vector> xs, linalg::Vector ys);

  /// Appends one observation; O(n^2) rank-1 factor update when the current
  /// factor is jitter-free, full re-factorization otherwise.
  void add_observation(const linalg::Vector& x, double y);

  /// Appends several observations with one posterior solve at the end.
  /// Equivalent to (and bit-identical with) adding them one by one.
  void add_observation_batch(const std::vector<linalg::Vector>& xs,
                             const linalg::Vector& ys);

  /// Maximizes the log marginal likelihood over kernel + noise
  /// hyper-parameters, then re-factorizes on the full data. Equivalent to
  /// execute_refit(prepare_refit(rng, options)).
  void optimize_hyperparameters(common::Rng& rng,
                                const FitOptions& options = {});

  /// Draws the refit randomness (cheap, serial). Does not modify the model.
  RefitPlan prepare_refit(common::Rng& rng,
                          const FitOptions& options = {}) const;

  /// Runs the deterministic part of a refit: NLL minimization from the
  /// plan's starts, hyper-parameter update, re-standardization and full
  /// re-factorization. Thread-safe across distinct models.
  void execute_refit(const RefitPlan& plan);

  Prediction predict(const linalg::Vector& x) const;

  /// Batched prediction; O(n^2) per point but organized as blocked
  /// triangular solves for cache efficiency. `include_noise` adds the
  /// observation noise to the returned variances.
  void predict_batch(const std::vector<linalg::Vector>& xs,
                     linalg::Vector& means, linalg::Vector& variances,
                     bool include_noise = false) const;

  /// Log marginal likelihood of the current fit (standardized units).
  double log_marginal_likelihood() const;

  std::size_t num_points() const { return xs_.size(); }
  const Kernel& kernel() const { return *kernel_; }
  double noise_variance() const { return noise_variance_; }

  /// Process predict_batch candidates in fixed-width panels fanned across
  /// the thread pool (default) or as one monolithic cross-covariance block,
  /// the reference the tiled path is tested against. Bit-identical results
  /// either way.
  void set_tiled_prediction(bool enabled) { tiled_prediction_ = enabled; }

  // ---- Posterior internals for gp::PosteriorCache ----
  // A cached whitened solve v = L^-1 k_star stays valid as long as no full
  // re-factorization happened; rank-1 appends only add rows to L, so cached
  // vectors extend in O(new rows) per candidate.

  /// Monotone counter bumped by every full re-factorization (fit, refit,
  /// jitter fallback). Rank-1 appends leave it unchanged.
  std::uint64_t posterior_epoch() const { return posterior_epoch_; }
  /// Current factor of K + noise*I. Throws std::runtime_error if unfitted.
  const linalg::CholeskyFactor& factor() const;
  /// Posterior weights (K + noise*I)^-1 y_std, standardized units.
  const linalg::Vector& alpha() const { return alpha_; }
  double output_mean() const { return y_mean_; }
  double output_sd() const { return y_sd_; }
  /// Cross-covariances k(x_i, x) against training rows [row0, row1), written
  /// to `out` — the exact per-element arithmetic predict_batch uses.
  void cross_rows(const linalg::Vector& x, std::size_t row0, std::size_t row1,
                  double* out) const;
  /// Prior variance k(x, x).
  double prior_variance(const linalg::Vector& x) const {
    return (*kernel_)(x, x);
  }

 private:
  /// Recomputes the output mean/sd from all raw targets and rewrites ys_std_.
  void standardize();
  void factorize();
  /// Rank-1 factor extension for the point just appended to xs_; returns
  /// false when a full re-factorization is required (jitter in play or lost
  /// positive definiteness).
  bool try_append_to_factor(const linalg::Vector& x);
  double nll_for(const linalg::Vector& log_params,
                 const std::vector<std::size_t>& subset) const;
  double nll_from_cache(const linalg::Vector& log_params,
                        const Kernel::PairwiseStats& stats,
                        const linalg::Vector& ys_subset) const;

  std::unique_ptr<Kernel> kernel_;
  double noise_variance_;
  bool tiled_prediction_ = true;
  std::uint64_t posterior_epoch_ = 0;

  std::vector<linalg::Vector> xs_;
  linalg::Vector ys_raw_;   // original units
  linalg::Vector ys_std_;   // standardized
  double y_mean_ = 0.0;
  double y_sd_ = 1.0;

  std::optional<linalg::CholeskyFactor> chol_;
  linalg::Vector alpha_;  // (K + s2 I)^-1 y_std
};

}  // namespace ppat::gp
