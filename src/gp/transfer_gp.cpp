#include "gp/transfer_gp.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/stats.hpp"
#include "gp/refit.hpp"

namespace ppat::gp {
namespace {

double rho_from(double a, double b) {
  return 2.0 * std::pow(1.0 / (1.0 + a), b) - 1.0;
}

/// Eq. (8) parameterizes the noises by precisions beta = 1/sigma^2; a fitted
/// noise variance is stored as 1/beta, so it rounds through the precision.
double through_precision(double noise_variance) {
  return 1.0 / (1.0 / noise_variance);
}

}  // namespace

TransferGaussianProcess::TransferGaussianProcess(std::unique_ptr<Kernel> kernel)
    : ExactGp("TransferGaussianProcess", std::move(kernel),
              1.0 / 1e4 /* beta_s = beta_t = 1e4 */) {
  rho_ = rho_from(gamma_a_, gamma_b_);
}

std::pair<ExactGp::Scale, ExactGp::Scale>
TransferGaussianProcess::output_scales() const {
  const std::span<const double> src(ys_raw_.data(), n_source_);
  const std::span<const double> tgt(ys_raw_.data() + n_source_,
                                    ys_raw_.size() - n_source_);
  const Scale source{common::mean(src),
                     std::max(1e-12, common::stddev(src))};
  // With very few target points the sample deviation is unreliable; borrow
  // the source scale (the tasks' standardized surfaces are what correlate).
  const double tgt_sd = common::stddev(tgt);
  const double sd = tgt.size() >= 3 && tgt_sd > 1e-12
                        ? tgt_sd
                        : (src.empty() ? 1.0 : source.sd);
  return {source, Scale{common::mean(tgt), std::max(1e-12, sd)}};
}

JointHypers TransferGaussianProcess::decode_hypers(
    const linalg::Vector& log_params) const {
  const std::size_t kdim = kernel_->num_hyperparameters();
  return {linalg::Vector(log_params.begin(),
                         log_params.begin() + static_cast<std::ptrdiff_t>(kdim)),
          rho_from(std::exp(log_params[kdim]), std::exp(log_params[kdim + 1])),
          std::exp(log_params[kdim + 2]), std::exp(log_params[kdim + 3])};
}

void TransferGaussianProcess::apply_hypers(const linalg::Vector& log_params,
                                           double min_noise_variance) {
  const std::size_t kdim = kernel_->num_hyperparameters();
  kernel_->set_hyperparameters(linalg::Vector(
      log_params.begin(),
      log_params.begin() + static_cast<std::ptrdiff_t>(kdim)));
  gamma_a_ = std::exp(log_params[kdim]);
  gamma_b_ = std::exp(log_params[kdim + 1]);
  rho_ = rho_from(gamma_a_, gamma_b_);
  source_noise_ = through_precision(
      std::max(min_noise_variance, std::exp(log_params[kdim + 2])));
  target_noise_ = through_precision(
      std::max(min_noise_variance, std::exp(log_params[kdim + 3])));
}

ExactGp::RefitPlan TransferGaussianProcess::prepare_refit(
    common::Rng& rng, const TransferFitOptions& options) const {
  require_fitted();
  RefitPlan plan;
  // Sorted subsets so the joint list preserves source-block ordering
  // (bit-frozen by journal replay).
  plan.rows = refit_subset(rng, n_source_, options.max_source_points,
                           /*sorted=*/true);
  plan.n_source = plan.rows.size();
  for (std::size_t i : refit_subset(rng, num_target_points(),
                                    options.max_target_points,
                                    /*sorted=*/true)) {
    plan.rows.push_back(n_source_ + i);
  }
  plan.current = kernel_->hyperparameters();
  plan.current.push_back(std::log(gamma_a_));
  plan.current.push_back(std::log(gamma_b_));
  plan.current.push_back(std::log(source_noise_));
  plan.current.push_back(std::log(target_noise_));
  plan.starts = refit_starts(rng, plan.current, options.restarts);
  plan.max_evals = options.max_evals;
  plan.min_noise_variance = options.min_noise_variance;
  return plan;
}

}  // namespace ppat::gp
