#include "gp/gp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "gp/refit.hpp"
#include "linalg/neldermead.hpp"

namespace ppat::gp {

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel,
                                 double noise_variance)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance) {
  if (!kernel_) throw std::invalid_argument("GaussianProcess: null kernel");
  if (noise_variance <= 0.0) {
    throw std::invalid_argument("GaussianProcess: noise must be positive");
  }
}

void GaussianProcess::fit(std::vector<linalg::Vector> xs, linalg::Vector ys) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("GaussianProcess::fit: bad training data");
  }
  xs_ = std::move(xs);
  ys_raw_ = std::move(ys);
  standardize();
  factorize();
}

void GaussianProcess::standardize() {
  y_mean_ = common::mean(ys_raw_);
  y_sd_ = std::max(1e-12, common::stddev(ys_raw_));
  ys_std_.resize(ys_raw_.size());
  for (std::size_t i = 0; i < ys_raw_.size(); ++i) {
    ys_std_[i] = (ys_raw_[i] - y_mean_) / y_sd_;
  }
}

bool GaussianProcess::try_append_to_factor(const linalg::Vector& x) {
  // The rank-1 path is only valid against a jitter-free factor: a full
  // re-factorization restarts the jitter escalation at zero, so extending a
  // jittered factor would diverge from it.
  if (!chol_ || chol_->jitter_used() != 0.0) {
    return false;
  }
  const std::size_t n = xs_.size() - 1;  // points before the append
  linalg::Vector k_new(n);
  for (std::size_t i = 0; i < n; ++i) k_new[i] = (*kernel_)(xs_[i], x);
  const double k_self = (*kernel_)(x, x) + noise_variance_;
  return chol_->append_row(k_new, k_self);
}

void GaussianProcess::add_observation(const linalg::Vector& x, double y) {
  if (xs_.empty()) {
    fit({x}, {y});
    return;
  }
  xs_.push_back(x);
  ys_raw_.push_back(y);
  // Keep the standardization frozen between refits so alpha stays coherent;
  // optimize_hyperparameters() re-standardizes from scratch via fit paths.
  ys_std_.push_back((y - y_mean_) / y_sd_);
  if (try_append_to_factor(x)) {
    alpha_ = chol_->solve(ys_std_);
  } else {
    factorize();
  }
}

void GaussianProcess::add_observation_batch(
    const std::vector<linalg::Vector>& xs, const linalg::Vector& ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("GaussianProcess::add_observation_batch");
  }
  if (xs.empty()) return;
  std::size_t next = 0;
  if (xs_.empty()) {
    fit({xs[0]}, {ys[0]});
    next = 1;
  }
  bool appended = true;
  for (; next < xs.size(); ++next) {
    xs_.push_back(xs[next]);
    ys_raw_.push_back(ys[next]);
    ys_std_.push_back((ys[next] - y_mean_) / y_sd_);
    if (appended) appended = try_append_to_factor(xs[next]);
  }
  // One posterior solve for the whole batch; the intermediate alphas a
  // point-by-point caller would compute are dead values.
  if (appended && chol_) {
    alpha_ = chol_->solve(ys_std_);
  } else {
    factorize();
  }
}

void GaussianProcess::factorize() {
  linalg::Matrix k = kernel_->gram(xs_);
  k.add_to_diagonal(noise_variance_);
  // The final fit escalates jitter with a scale-aware cap (and logs what it
  // needed): near-duplicate revealed points must degrade conditioning
  // gracefully, not abort a long tuning run.
  auto chol = linalg::CholeskyFactor::compute_with_adaptive_jitter(k);
  if (!chol) {
    throw std::runtime_error(
        "GaussianProcess: kernel matrix not positive definite");
  }
  chol_ = std::move(chol);
  alpha_ = chol_->solve(ys_std_);
  // Cached whitened posterior solves are against the old factor; a full
  // re-factorization (unlike a rank-1 append) invalidates them.
  ++posterior_epoch_;
}

const linalg::CholeskyFactor& GaussianProcess::factor() const {
  if (!chol_) throw std::runtime_error("GaussianProcess: not fitted");
  return *chol_;
}

void GaussianProcess::cross_rows(const linalg::Vector& x, std::size_t row0,
                                 std::size_t row1, double* out) const {
  assert(row1 <= xs_.size());
  for (std::size_t i = row0; i < row1; ++i) {
    out[i - row0] = (*kernel_)(xs_[i], x);
  }
}

double GaussianProcess::log_marginal_likelihood() const {
  if (!chol_) throw std::runtime_error("GaussianProcess: not fitted");
  const double n = static_cast<double>(xs_.size());
  return -0.5 * linalg::dot(ys_std_, alpha_) - 0.5 * chol_->log_det() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

double GaussianProcess::nll_for(const linalg::Vector& log_params,
                                const std::vector<std::size_t>& subset) const {
  // Reject out-of-range points before any allocation: hyper-parameter
  // search probes many infeasible candidates and this path must stay cheap.
  for (double p : log_params) {
    if (!std::isfinite(p) || std::fabs(p) > 12.0) {
      return std::numeric_limits<double>::infinity();
    }
  }
  // log_params = [kernel..., log noise]
  auto k = kernel_->clone();
  linalg::Vector kp(log_params.begin(), log_params.end() - 1);
  k->set_hyperparameters(kp);
  const double noise = std::exp(log_params.back());

  std::vector<linalg::Vector> xs;
  linalg::Vector ys;
  xs.reserve(subset.size());
  ys.reserve(subset.size());
  for (std::size_t i : subset) {
    xs.push_back(xs_[i]);
    ys.push_back(ys_std_[i]);
  }
  linalg::Matrix gram = k->gram(xs);
  gram.add_to_diagonal(noise);
  auto chol = linalg::CholeskyFactor::compute_with_jitter(gram);
  if (!chol) return std::numeric_limits<double>::infinity();
  const linalg::Vector alpha = chol->solve(ys);
  const double n = static_cast<double>(xs.size());
  return 0.5 * linalg::dot(ys, alpha) + 0.5 * chol->log_det() +
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

double GaussianProcess::nll_from_cache(const linalg::Vector& log_params,
                                       const Kernel::PairwiseStats& stats,
                                       const linalg::Vector& ys_subset) const {
  for (double p : log_params) {
    if (!std::isfinite(p) || std::fabs(p) > 12.0) {
      return std::numeric_limits<double>::infinity();
    }
  }
  auto k = kernel_->clone();
  linalg::Vector kp(log_params.begin(), log_params.end() - 1);
  k->set_hyperparameters(kp);
  const double noise = std::exp(log_params.back());

  linalg::Matrix gram = k->gram_from_pairwise(stats);
  gram.add_to_diagonal(noise);
  auto chol = linalg::CholeskyFactor::compute_with_jitter(gram);
  if (!chol) return std::numeric_limits<double>::infinity();
  const linalg::Vector alpha = chol->solve(ys_subset);
  const double n = static_cast<double>(ys_subset.size());
  return 0.5 * linalg::dot(ys_subset, alpha) + 0.5 * chol->log_det() +
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

GaussianProcess::RefitPlan GaussianProcess::prepare_refit(
    common::Rng& rng, const FitOptions& options) const {
  if (xs_.empty()) {
    throw std::runtime_error("GaussianProcess: fit before optimizing");
  }
  RefitPlan plan;
  plan.options = options;
  // Subsample for the objective if the dataset is large (draw order kept —
  // bit-frozen by journal replay).
  plan.subset = refit_subset(rng, xs_.size(), options.max_points,
                             /*sorted=*/false);

  plan.current = kernel_->hyperparameters();
  plan.current.push_back(std::log(std::max(options.min_noise_variance,
                                           noise_variance_)));
  plan.starts = refit_starts(rng, plan.current, options.restarts);
  return plan;
}

void GaussianProcess::execute_refit(const RefitPlan& plan) {
  const FitOptions& options = plan.options;

  // Pairwise-cache kernels only depend on per-pair statistics (squared
  // distances; plus categorical mismatch counts for the mixed kernel) that
  // are hyper-parameter independent: compute them once for the subset, then
  // each NLL evaluation is a scalar map + Cholesky instead of an O(n^2 d)
  // Gram rebuild from raw inputs.
  const bool cached = kernel_->supports_pairwise_cache();
  Kernel::PairwiseStats stats;
  linalg::Vector ys_subset;
  if (cached) {
    std::vector<linalg::Vector> xs;
    xs.reserve(plan.subset.size());
    ys_subset.reserve(plan.subset.size());
    for (std::size_t i : plan.subset) {
      xs.push_back(xs_[i]);
      ys_subset.push_back(ys_std_[i]);
    }
    stats = kernel_->pairwise_stats(xs);
  }
  auto objective = [&](const linalg::Vector& p) {
    return cached ? nll_from_cache(p, stats, ys_subset)
                  : nll_for(p, plan.subset);
  };

  linalg::NelderMeadOptions nm;
  nm.max_evals = options.max_evals;
  nm.initial_step = 0.7;
  const MultiStartResult best =
      minimize_multistart(objective, plan.current, plan.starts, nm);

  if (std::isfinite(best.f)) {
    linalg::Vector kp(best.x.begin(), best.x.end() - 1);
    kernel_->set_hyperparameters(kp);
    noise_variance_ =
        std::max(options.min_noise_variance, std::exp(best.x.back()));
  }
  // Re-standardize over every target: appends since the last fit were
  // standardized against its frozen stats.
  standardize();
  factorize();
}

void GaussianProcess::optimize_hyperparameters(common::Rng& rng,
                                               const FitOptions& options) {
  execute_refit(prepare_refit(rng, options));
}

Prediction GaussianProcess::predict(const linalg::Vector& x) const {
  if (!chol_) throw std::runtime_error("GaussianProcess: not fitted");
  linalg::Vector k_star(xs_.size());
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    k_star[i] = (*kernel_)(xs_[i], x);
  }
  Prediction p;
  p.mean = y_mean_ + y_sd_ * linalg::dot(k_star, alpha_);
  const linalg::Vector v = chol_->solve_lower(k_star);
  const double var_std = (*kernel_)(x, x) - linalg::dot(v, v);
  p.variance = std::max(0.0, var_std) * y_sd_ * y_sd_;
  return p;
}

void GaussianProcess::predict_batch(const std::vector<linalg::Vector>& xs,
                                    linalg::Vector& means,
                                    linalg::Vector& variances,
                                    bool include_noise) const {
  if (!chol_) throw std::runtime_error("GaussianProcess: not fitted");
  const std::size_t m = xs.size();
  const std::size_t n = xs_.size();
  means.resize(m);
  variances.resize(m);
  if (m == 0) return;
  if (!tiled_prediction_) {
    // Reference path: one monolithic n x m cross-covariance block.
    linalg::Matrix k_star = kernel_->cross(xs_, xs);
    for (std::size_t j = 0; j < m; ++j) {
      double mu = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        mu += k_star(i, j) * alpha_[i];
      }
      means[j] = y_mean_ + y_sd_ * mu;
    }
    const linalg::Matrix v = chol_->solve_lower_multi(k_star);
    for (std::size_t j = 0; j < m; ++j) {
      double vv = 0.0;
      for (std::size_t i = 0; i < n; ++i) vv += v(i, j) * v(i, j);
      double var_std = (*kernel_)(xs[j], xs[j]) - vv;
      if (include_noise) var_std += noise_variance_;
      variances[j] = std::max(0.0, var_std) * y_sd_ * y_sd_;
    }
    return;
  }
  // Tiled path: candidate columns are independent, so they process in
  // fixed-width panels — the cross-covariance block, triangular solve, and
  // reductions for one panel stay cache-resident instead of streaming an
  // n x m block three times — and panels fan out across the thread pool.
  // Each column's arithmetic is the one-shot sequence exactly, so results
  // are bit-identical for every tile width and thread count.
  constexpr std::size_t kTile = 256;
  auto process = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t t0 = c0; t0 < c1; t0 += kTile) {
      const std::size_t t1 = std::min(t0 + kTile, c1);
      const std::size_t w = t1 - t0;
      linalg::Matrix panel(n, w);
      for (std::size_t i = 0; i < n; ++i) {
        double* row = panel.row(i).data();
        for (std::size_t j = 0; j < w; ++j) {
          row[j] = (*kernel_)(xs_[i], xs[t0 + j]);
        }
      }
      for (std::size_t j = 0; j < w; ++j) {
        double mu = 0.0;
        for (std::size_t i = 0; i < n; ++i) mu += panel(i, j) * alpha_[i];
        means[t0 + j] = y_mean_ + y_sd_ * mu;
      }
      const linalg::Matrix v = chol_->solve_lower_multi(panel);
      for (std::size_t j = 0; j < w; ++j) {
        double vv = 0.0;
        for (std::size_t i = 0; i < n; ++i) vv += v(i, j) * v(i, j);
        double var_std = (*kernel_)(xs[t0 + j], xs[t0 + j]) - vv;
        if (include_noise) var_std += noise_variance_;
        variances[t0 + j] = std::max(0.0, var_std) * y_sd_ * y_sd_;
      }
    }
  };
  if (m >= 2 * kTile) {
    common::parallel_for_blocks(0, m, process, kTile);
  } else {
    process(0, m);
  }
}

}  // namespace ppat::gp
