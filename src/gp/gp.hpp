// Standard Gaussian-process regression (paper §2.1).
//
// The exact-GP engine (gp/exact_gp.hpp) with no source block. This class
// holds only the plain GP's policies:
//   * hyper-parameter layout [kernel..., log noise variance], one noise for
//     every row;
//   * standardization: targets are standardized over all observations
//     (zero mean, unit variance), so kernel signal variances stay O(1)
//     across QoR metrics with wildly different units (um^2 vs mW vs ns);
//   * refit subset: up to FitOptions::max_points rows in draw order.
// Fit, appends, prediction, the likelihood and the refit itself are the
// engine's.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "gp/exact_gp.hpp"
#include "gp/kernel.hpp"

namespace ppat::gp {

struct FitOptions {
  std::size_t restarts = 2;          ///< Nelder-Mead multi-starts
  std::size_t max_evals = 80;        ///< NLL evaluations per start
  std::size_t max_points = 300;      ///< subsample cap for the NLL objective
  double min_noise_variance = 1e-6;  ///< lower clamp on fitted noise
};

/// Exact GP regressor with Gaussian observation noise.
class GaussianProcess final : public ExactGp {
 public:
  /// Takes ownership of the kernel. `noise_variance` is the initial value;
  /// optimize_hyperparameters() refines it.
  explicit GaussianProcess(std::unique_ptr<Kernel> kernel,
                           double noise_variance = 1e-4);

  /// Sets the training data and factorizes. Throws std::invalid_argument on
  /// empty or mismatched data, std::runtime_error if the kernel matrix
  /// cannot be factorized even with maximum jitter.
  void fit(std::vector<linalg::Vector> xs, linalg::Vector ys) {
    ExactGp::fit({}, {}, std::move(xs), std::move(ys));
  }

  /// Maximizes the log marginal likelihood over kernel + noise
  /// hyper-parameters, then re-factorizes on the full data.
  void optimize_hyperparameters(common::Rng& rng,
                                const FitOptions& options = {}) {
    execute_refit(prepare_refit(rng, options));
  }

  RefitPlan prepare_refit(common::Rng& rng) const override {
    return prepare_refit(rng, FitOptions{});
  }
  RefitPlan prepare_refit(common::Rng& rng, const FitOptions& options) const;

  std::size_t num_points() const { return xs_.size(); }
  double noise_variance() const { return target_noise_; }

 private:
  std::pair<Scale, Scale> output_scales() const override;
  JointHypers decode_hypers(const linalg::Vector& log_params) const override;
  void apply_hypers(const linalg::Vector& log_params,
                    double min_noise_variance) override;
};

}  // namespace ppat::gp
