#include "gp/refit.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>

#include "gp/exact_gp.hpp"

namespace ppat::gp {

std::vector<std::size_t> refit_subset(common::Rng& rng, std::size_t total,
                                      std::size_t cap, bool sorted) {
  std::vector<std::size_t> idx;
  if (total > cap) {
    idx = rng.sample_without_replacement(total, cap);
    if (sorted) std::sort(idx.begin(), idx.end());
  } else {
    idx.resize(total);
    for (std::size_t i = 0; i < total; ++i) idx[i] = i;
  }
  return idx;
}

std::vector<linalg::Vector> refit_starts(common::Rng& rng,
                                         const linalg::Vector& current,
                                         std::size_t restarts) {
  std::vector<linalg::Vector> starts;
  starts.reserve(restarts);
  for (std::size_t s = 0; s < restarts; ++s) {
    linalg::Vector x0 = current;
    if (s > 0) {
      for (double& v : x0) v += rng.normal(0.0, 1.0);
    }
    starts.push_back(std::move(x0));
  }
  return starts;
}

MultiStartResult minimize_multistart(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& current, const std::vector<linalg::Vector>& starts,
    const linalg::NelderMeadOptions& nm) {
  // Ordered winner scan: incumbent first, then plan order, strict <.
  MultiStartResult best{current, objective(current)};
  for (const auto& start : starts) {
    const linalg::NelderMeadResult r =
        linalg::nelder_mead(objective, start, nm);
    if (r.f < best.f) {
      best.f = r.f;
      best.x = r.x;
    }
  }
  return best;
}

double gaussian_nll(const linalg::Vector& ys, const linalg::Vector& alpha,
                    double log_det) {
  const double n = static_cast<double>(ys.size());
  return 0.5 * linalg::dot(ys, alpha) + 0.5 * log_det +
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

struct ExactGp::NllData {
  std::vector<linalg::Vector> xs;  ///< subset rows, source rows first
  std::size_t n_source = 0;
  linalg::Vector ys;  ///< standardized targets of the subset rows
  /// Hyper-parameter-independent pair statistics of xs, for kernels that
  /// support the pairwise cache.
  std::optional<Kernel::PairwiseStats> stats;
};

double ExactGp::nll(const linalg::Vector& log_params,
                    const NllData& data) const {
  // Reject out-of-range points before any allocation: the search probes
  // many infeasible candidates and this path must stay cheap.
  for (double p : log_params) {
    if (!std::isfinite(p) || std::fabs(p) > 12.0) {
      return std::numeric_limits<double>::infinity();
    }
  }
  const JointHypers h = decode_hypers(log_params);
  auto k = kernel_->clone();
  k->set_hyperparameters(h.kernel);
  auto chol = linalg::CholeskyFactor::compute_with_jitter(joint_gram(
      data.stats ? k->gram_from_pairwise(*data.stats) : k->gram(data.xs),
      data.n_source, h.rho, h.source_noise, h.target_noise));
  if (!chol) return std::numeric_limits<double>::infinity();
  return gaussian_nll(data.ys, chol->solve(data.ys), chol->log_det());
}

void ExactGp::execute_refit(const RefitPlan& plan) {
  NllData data;
  data.n_source = plan.n_source;
  data.xs.reserve(plan.rows.size());
  data.ys.reserve(plan.rows.size());
  for (std::size_t i : plan.rows) {
    data.xs.push_back(xs_[i]);
    data.ys.push_back(ys_std_[i]);
  }
  // Pairwise-cache kernels only depend on per-pair statistics (squared
  // distances; plus categorical mismatch counts for the mixed kernel) that
  // do not depend on the hyper-parameters: compute them once for the
  // subset, and each probe is a scalar map + Cholesky instead of an
  // O(n^2 d) Gram rebuild from raw inputs.
  if (kernel_->supports_pairwise_cache()) {
    data.stats = kernel_->pairwise_stats(data.xs);
  }

  linalg::NelderMeadOptions nm;
  nm.max_evals = plan.max_evals;
  nm.initial_step = 0.7;
  const MultiStartResult best = minimize_multistart(
      [&](const linalg::Vector& p) { return nll(p, data); }, plan.current,
      plan.starts, nm);

  if (std::isfinite(best.f)) apply_hypers(best.x, plan.min_noise_variance);
  // Re-standardize over every target: appends since the last fit were
  // standardized against its frozen scales.
  standardize();
  factorize();
}

}  // namespace ppat::gp
