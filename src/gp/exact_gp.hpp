// The exact-GP engine behind GaussianProcess (paper §2.1) and
// TransferGaussianProcess (paper §3.1).
//
// Both models are one exact GP over one list of training rows: a source
// block followed by a target block. The transfer GP scales every covariance
// between the two blocks by rho (Eq. (7)) and gives each block its own
// noise (Eq. (8)); the plain GP has no source block, so neither applies.
// Everything else exists once, here:
//   * the joint Gram matrix (joint_gram);
//   * the posterior: factorize with adaptive jitter, the rank-1 and batch
//     appends, the tiled predict_batch and its untiled reference, the log
//     marginal likelihood;
//   * the refit: one NLL and one execute_refit (defined in gp/refit.cpp).
//
// A model supplies only what differs: its hyper-parameter layout
// (decode_hypers / apply_hypers), its standardization policy
// (output_scales) and its refit subset and options (prepare_refit).
//
// Appends extend the Cholesky factor by rank-1 bordering (O(n^2) per point)
// whenever the current factor needed no jitter; the result is bit-identical
// to a full re-factorization. Every full re-factorization bumps
// posterior_epoch(), which is how gp::PosteriorCache knows its cached solves
// are stale (DESIGN.md §8, §10).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"

namespace ppat::gp {

/// Hyper-parameters of the joint system, read from one log-space vector.
struct JointHypers {
  linalg::Vector kernel;      ///< kernel log-parameters
  double rho = 1.0;           ///< source x target covariance factor
  double source_noise = 0.0;  ///< noise variance of source rows
  double target_noise = 0.0;  ///< noise variance of target rows
};

/// Joint kernel matrix over [source block; target block] from the kernel's
/// Gram `base` over those rows: the source x target block is scaled by rho
/// and each block's noise is added to its diagonal. Only the upper triangle
/// is scaled — all CholeskyFactor::compute reads — so `base` may come from
/// Kernel::gram or from the upper-triangle Kernel::gram_from_pairwise.
linalg::Matrix joint_gram(linalg::Matrix base, std::size_t n_source,
                          double rho, double source_noise,
                          double target_noise);

/// Exact GP regression over a source block and a target block.
class ExactGp {
 public:
  /// The randomness of one hyper-parameter refit, drawn up front by
  /// prepare_refit: the NLL subsample and one Nelder-Mead start per restart
  /// (starts[0] is the incumbent). Consuming the plan is deterministic.
  struct RefitPlan {
    std::vector<std::size_t> rows;  ///< NLL subset, source rows first
    std::size_t n_source = 0;       ///< how many of `rows` are source rows
    linalg::Vector current;         ///< incumbent log-space vector
    std::vector<linalg::Vector> starts;
    std::size_t max_evals = 0;  ///< NLL evaluations per start
    double min_noise_variance = 0.0;
  };

  virtual ~ExactGp() = default;

  /// Sets both blocks' data and factorizes. The source block may be empty.
  /// Throws std::invalid_argument on mismatched sizes or no target data,
  /// std::runtime_error if the kernel matrix cannot be factorized even with
  /// maximum jitter.
  void fit(std::vector<linalg::Vector> source_xs, linalg::Vector source_ys,
           std::vector<linalg::Vector> target_xs, linalg::Vector target_ys);

  /// Appends one target observation (fits from it if there is no data).
  void add_observation(const linalg::Vector& x, double y);

  /// Appends several target observations with one posterior solve at the
  /// end. Bit-identical to adding them one by one.
  void add_observation_batch(const std::vector<linalg::Vector>& xs,
                             const linalg::Vector& ys);

  /// Draws the refit randomness with the model's default options (cheap,
  /// serial). Does not modify the model.
  virtual RefitPlan prepare_refit(common::Rng& rng) const = 0;

  /// Runs the deterministic part of a refit: NLL minimization from the
  /// plan's starts, hyper-parameter update, re-standardization and full
  /// re-factorization. Thread-safe across distinct models.
  void execute_refit(const RefitPlan& plan);

  /// Posterior over target-task inputs, without the observation noise (the
  /// tuner reasons about the latent response surface).
  void predict_batch(const std::vector<linalg::Vector>& xs,
                     linalg::Vector& means, linalg::Vector& variances) const;

  /// Log marginal likelihood of the current fit (standardized units).
  double log_marginal_likelihood() const;

  /// Process predict_batch candidates in fixed-width panels fanned across
  /// the thread pool (default) or as one monolithic cross-covariance block,
  /// the reference the tiled path is tested against. Bit-identical results
  /// either way.
  void set_tiled_prediction(bool enabled) { tiled_prediction_ = enabled; }

  const Kernel& kernel() const { return *kernel_; }
  std::size_t num_target_points() const { return xs_.size() - n_source_; }

  // ---- Posterior internals for gp::PosteriorCache ----
  // A cached whitened solve v = L^-1 k_star stays valid as long as no full
  // re-factorization happened; appends only add rows to L (target rows sit
  // at the bottom of the joint system), so cached vectors extend in
  // O(new rows) per candidate.

  /// Monotone counter bumped by every full re-factorization (fit, refit,
  /// jitter fallback). Rank-1 appends leave it unchanged.
  std::uint64_t posterior_epoch() const { return posterior_epoch_; }
  /// Current factor of the joint kernel matrix. Throws if unfitted.
  const linalg::CholeskyFactor& factor() const;
  /// Posterior weights (joint K)^-1 y_std, standardized units.
  const linalg::Vector& alpha() const { return alpha_; }
  double output_mean() const { return target_scale_.mean; }
  double output_sd() const { return target_scale_.sd; }
  /// Cross-covariances of target-task input `x` against training rows
  /// [row0, row1), written to `out`: source rows carry rho — the exact
  /// per-element arithmetic predict_batch uses.
  void cross_rows(const linalg::Vector& x, std::size_t row0, std::size_t row1,
                  double* out) const;
  /// Prior variance k(x, x) (within-task, no cross scaling).
  double prior_variance(const linalg::Vector& x) const {
    return (*kernel_)(x, x);
  }

 protected:
  /// Mean and standard deviation one block is standardized with.
  struct Scale {
    double mean = 0.0;
    double sd = 1.0;
  };

  /// `name` prefixes error messages. Both blocks start at `noise_variance`.
  ExactGp(const char* name, std::unique_ptr<Kernel> kernel,
          double noise_variance);
  ExactGp(ExactGp&&) = default;
  ExactGp& operator=(ExactGp&&) = default;

  /// Standardization policy: the {source, target} block scales for the raw
  /// targets in ys_raw_.
  virtual std::pair<Scale, Scale> output_scales() const = 0;
  /// Hyper-parameter layout: reads one NLL probe's log-space vector.
  virtual JointHypers decode_hypers(const linalg::Vector& log_params) const = 0;
  /// Installs a refit's winning log-space vector, noises floored at
  /// `min_noise_variance`.
  virtual void apply_hypers(const linalg::Vector& log_params,
                            double min_noise_variance) = 0;

  /// Throws std::runtime_error unless the model has a factor.
  void require_fitted() const;

  std::unique_ptr<Kernel> kernel_;
  double rho_ = 1.0;
  double source_noise_;
  double target_noise_;
  std::vector<linalg::Vector> xs_;  ///< source block, then target block
  std::size_t n_source_ = 0;
  linalg::Vector ys_raw_;  ///< original units, same order as xs_

 private:
  /// One NLL subset, gathered once per refit.
  struct NllData;

  /// Recomputes the block scales from ys_raw_ and rewrites ys_std_.
  void standardize();
  void factorize();
  /// Rank-1 factor extension for the point just appended to xs_; returns
  /// false when a full re-factorization is required (jitter in play or lost
  /// positive definiteness).
  bool try_append_to_factor(const linalg::Vector& x);
  double nll(const linalg::Vector& log_params, const NllData& data) const;

  const char* name_;
  bool tiled_prediction_ = true;
  std::uint64_t posterior_epoch_ = 0;
  linalg::Vector ys_std_;  ///< standardized, same order as xs_
  Scale target_scale_;     ///< frozen between refits for appends
  std::optional<linalg::CholeskyFactor> chol_;
  linalg::Vector alpha_;
};

}  // namespace ppat::gp
