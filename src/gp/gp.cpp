#include "gp/gp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "gp/refit.hpp"

namespace ppat::gp {

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel,
                                 double noise_variance)
    : ExactGp("GaussianProcess", std::move(kernel), noise_variance) {}

std::pair<ExactGp::Scale, ExactGp::Scale> GaussianProcess::output_scales()
    const {
  return {Scale{}, Scale{common::mean(ys_raw_),
                         std::max(1e-12, common::stddev(ys_raw_))}};
}

JointHypers GaussianProcess::decode_hypers(
    const linalg::Vector& log_params) const {
  const double noise = std::exp(log_params.back());
  return {linalg::Vector(log_params.begin(), log_params.end() - 1), 1.0,
          noise, noise};
}

void GaussianProcess::apply_hypers(const linalg::Vector& log_params,
                                   double min_noise_variance) {
  kernel_->set_hyperparameters(
      linalg::Vector(log_params.begin(), log_params.end() - 1));
  target_noise_ = std::max(min_noise_variance, std::exp(log_params.back()));
  source_noise_ = target_noise_;
}

ExactGp::RefitPlan GaussianProcess::prepare_refit(
    common::Rng& rng, const FitOptions& options) const {
  if (xs_.empty()) {
    throw std::runtime_error("GaussianProcess: fit before optimizing");
  }
  RefitPlan plan;
  plan.rows = refit_subset(rng, xs_.size(), options.max_points,
                           /*sorted=*/false);
  plan.current = kernel_->hyperparameters();
  plan.current.push_back(
      std::log(std::max(options.min_noise_variance, target_noise_)));
  plan.starts = refit_starts(rng, plan.current, options.restarts);
  plan.max_evals = options.max_evals;
  plan.min_noise_variance = options.min_noise_variance;
  return plan;
}

}  // namespace ppat::gp
