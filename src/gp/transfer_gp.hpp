// Transfer Gaussian process (paper §3.1).
//
// Joint GP over source-task and target-task observations with the transfer
// kernel of Eq. (7): within-task covariance is the base kernel k(.,.);
// cross-task covariance is k(.,.) scaled by
//
//     rho = 2 * (1 / (1 + a))^b - 1   in (-1, 1),
//
// which is the closed form of integrating the task-dissimilarity factor
// (2 e^{-phi} - 1) over a Gamma(b, a) prior on phi (Eqs. (5)-(6)). rho -> 1
// means the tasks are effectively the same (full transfer); rho -> 0 means
// unrelated (the source block only shares kernel hyper-parameters); rho < 0
// captures anti-correlated tasks — the "stronger expression ability" the
// paper highlights.
//
// Observation noise is per-task (Eq. (8)): Lambda = diag(1/beta_s I_N,
// 1/beta_t I_M). All hyper-parameters — base kernel, a, b, beta_s, beta_t —
// are learned by maximizing the joint marginal likelihood (multi-start
// Nelder–Mead in log space).
//
// Targets are standardized PER TASK: source and target QoR values can live
// on different scales (e.g. the power of a 20k-cell vs a 67k-cell design),
// and the transfer kernel models correlation of the *standardized response
// surfaces*, which is exactly the "influence of parameters is consistent
// across designs" observation the paper builds on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"

namespace ppat::gp {

struct TransferFitOptions {
  std::size_t restarts = 2;
  std::size_t max_evals = 90;
  std::size_t max_source_points = 200;  ///< subsample cap for the objective
  std::size_t max_target_points = 200;
  double min_noise_variance = 1e-6;
};

/// GP regression on a target task assisted by source-task observations.
class TransferGaussianProcess {
 public:
  /// Randomness of one joint-likelihood refit, drawn up front so the
  /// deterministic search can run off-thread (see GaussianProcess::RefitPlan).
  struct RefitPlan {
    std::vector<std::size_t> src_subset, tgt_subset;
    linalg::Vector current;
    std::vector<linalg::Vector> starts;
    TransferFitOptions options;
  };

  /// Takes ownership of the base kernel (shared across tasks).
  explicit TransferGaussianProcess(std::unique_ptr<Kernel> kernel);

  /// Sets both tasks' data and factorizes the joint system. The source set
  /// may be empty, in which case this degrades gracefully to a plain GP on
  /// the target data.
  void fit(std::vector<linalg::Vector> source_xs, linalg::Vector source_ys,
           std::vector<linalg::Vector> target_xs, linalg::Vector target_ys);

  /// Appends one target-task observation; O(n^2) rank-1 factor update when
  /// the current joint factor is jitter-free, full re-factorization
  /// otherwise (target rows sit at the bottom of the joint system, so a
  /// target append is exactly a bordered extension).
  void add_target_observation(const linalg::Vector& x, double y);

  /// Appends several target observations with one posterior solve at the
  /// end. Bit-identical to adding them one by one.
  void add_target_observation_batch(const std::vector<linalg::Vector>& xs,
                                    const linalg::Vector& ys);

  /// Learns base-kernel hyper-parameters, the Gamma-prior parameters (a, b),
  /// and per-task noises by maximizing the joint marginal likelihood.
  /// Equivalent to execute_refit(prepare_refit(rng, options)).
  void optimize_hyperparameters(common::Rng& rng,
                                const TransferFitOptions& options = {});

  /// Draws the refit randomness (cheap, serial). Does not modify the model.
  RefitPlan prepare_refit(common::Rng& rng,
                          const TransferFitOptions& options = {}) const;

  /// Deterministic part of a refit; thread-safe across distinct models.
  void execute_refit(const RefitPlan& plan);

  /// Tiled (default) or reference predict_batch (see
  /// GaussianProcess::set_tiled_prediction).
  void set_tiled_prediction(bool enabled) { tiled_prediction_ = enabled; }

  // ---- Posterior internals for gp::PosteriorCache ----
  // Same contract as GaussianProcess: the joint factor only grows between
  // full re-factorizations (target appends border the bottom of the joint
  // system), so cached whitened solves extend row by row.

  /// Monotone counter bumped by every full re-factorization of the joint
  /// system (fit, refit, jitter fallback); rank-1 target appends keep it.
  std::uint64_t posterior_epoch() const { return posterior_epoch_; }
  /// Current factor of the joint kernel matrix. Throws if unfitted.
  const linalg::CholeskyFactor& factor() const;
  /// Joint posterior weights, standardized units.
  const linalg::Vector& alpha() const { return alpha_; }
  double output_mean() const { return tgt_mean_; }
  double output_sd() const { return tgt_sd_; }
  /// Scaled cross-covariances of target-task input `x` against joint rows
  /// [row0, row1): source rows carry the cross-task factor rho, exactly as
  /// predict_batch computes them.
  void cross_rows(const linalg::Vector& x, std::size_t row0, std::size_t row1,
                  double* out) const;
  /// Prior variance k(x, x) (within-task, no cross scaling).
  double prior_variance(const linalg::Vector& x) const {
    return (*kernel_)(x, x);
  }

  /// Posterior at a target-task input (paper Eq. (8), without the
  /// observation-noise term in the variance; the tuner reasons about the
  /// latent response surface).
  Prediction predict(const linalg::Vector& x) const;

  /// Batched prediction over target-task inputs.
  void predict_batch(const std::vector<linalg::Vector>& xs,
                     linalg::Vector& means, linalg::Vector& variances) const;

  /// Joint log marginal likelihood of the current fit.
  double log_marginal_likelihood() const;

  /// Learned inter-task correlation rho = 2 (1/(1+a))^b - 1.
  double task_correlation() const;

  double source_noise_variance() const { return 1.0 / beta_s_; }
  double target_noise_variance() const { return 1.0 / beta_t_; }
  std::size_t num_source_points() const { return source_xs_.size(); }
  std::size_t num_target_points() const { return target_xs_.size(); }
  const Kernel& kernel() const { return *kernel_; }

 private:
  void factorize();
  void restandardize();
  bool try_append_to_factor(const linalg::Vector& x);
  double joint_nll(const linalg::Vector& log_params,
                   const std::vector<std::size_t>& src_subset,
                   const std::vector<std::size_t>& tgt_subset) const;
  double joint_nll_from_cache(const linalg::Vector& log_params,
                              const Kernel::PairwiseStats& stats,
                              std::size_t n_src,
                              const linalg::Vector& ys_subset) const;
  static double rho_from(double a, double b);

  std::unique_ptr<Kernel> kernel_;
  bool tiled_prediction_ = true;
  std::uint64_t posterior_epoch_ = 0;
  double gamma_a_ = 0.5;  ///< Gamma scale (paper's a)
  double gamma_b_ = 0.5;  ///< Gamma shape (paper's b)
  double beta_s_ = 1e4;   ///< source noise precision
  double beta_t_ = 1e4;   ///< target noise precision

  std::vector<linalg::Vector> source_xs_, target_xs_;
  linalg::Vector source_ys_raw_, target_ys_raw_;
  linalg::Vector ys_std_;  ///< standardized, source block then target block
  double src_mean_ = 0.0, src_sd_ = 1.0;
  double tgt_mean_ = 0.0, tgt_sd_ = 1.0;

  std::optional<linalg::CholeskyFactor> chol_;
  linalg::Vector alpha_;
};

}  // namespace ppat::gp
