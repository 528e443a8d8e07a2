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
// paper highlights. Observation noise is per-task (Eq. (8)):
// Lambda = diag(1/beta_s I_N, 1/beta_t I_M).
//
// The joint system is the exact-GP engine (gp/exact_gp.hpp) with the source
// rows as its scaled block; target appends border the bottom of the joint
// system. This class holds only the transfer GP's policies:
//   * hyper-parameter layout [kernel..., log a, log b, log sigma2_s,
//     log sigma2_t], all learned by maximizing the joint marginal
//     likelihood;
//   * standardization PER TASK: source and target QoR values can live on
//     different scales (e.g. the power of a 20k-cell vs a 67k-cell design),
//     and the transfer kernel models correlation of the *standardized
//     response surfaces* — the "influence of parameters is consistent
//     across designs" observation the paper builds on;
//   * refit subset: up to max_source_points + max_target_points rows, each
//     block sorted so the joint subset keeps source-block order.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "gp/exact_gp.hpp"
#include "gp/gp.hpp"  // the plain GP a source-less transfer GP reduces to
#include "gp/kernel.hpp"

namespace ppat::gp {

struct TransferFitOptions {
  std::size_t restarts = 2;
  std::size_t max_evals = 90;
  std::size_t max_source_points = 200;  ///< subsample cap for the objective
  std::size_t max_target_points = 200;
  double min_noise_variance = 1e-6;
};

/// GP regression on a target task assisted by source-task observations.
/// add_observation / add_observation_batch append target observations.
class TransferGaussianProcess final : public ExactGp {
 public:
  /// Takes ownership of the base kernel (shared across tasks).
  explicit TransferGaussianProcess(std::unique_ptr<Kernel> kernel);

  /// Learns base-kernel hyper-parameters, the Gamma-prior parameters (a, b),
  /// and per-task noises by maximizing the joint marginal likelihood.
  void optimize_hyperparameters(common::Rng& rng,
                                const TransferFitOptions& options = {}) {
    execute_refit(prepare_refit(rng, options));
  }

  RefitPlan prepare_refit(common::Rng& rng) const override {
    return prepare_refit(rng, TransferFitOptions{});
  }
  RefitPlan prepare_refit(common::Rng& rng,
                          const TransferFitOptions& options) const;

  /// Learned inter-task correlation rho = 2 (1/(1+a))^b - 1.
  double task_correlation() const { return rho_; }

  double source_noise_variance() const { return source_noise_; }
  double target_noise_variance() const { return target_noise_; }
  std::size_t num_source_points() const { return n_source_; }

 private:
  std::pair<Scale, Scale> output_scales() const override;
  JointHypers decode_hypers(const linalg::Vector& log_params) const override;
  void apply_hypers(const linalg::Vector& log_params,
                    double min_noise_variance) override;

  double gamma_a_ = 0.5;  ///< Gamma scale (paper's a)
  double gamma_b_ = 0.5;  ///< Gamma shape (paper's b)
};

}  // namespace ppat::gp
