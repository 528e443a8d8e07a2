#include "gp/transfer_gp.hpp"

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
namespace {

/// Joint kernel matrix over [source block; target block] with the transfer
/// scaling on the cross block and per-task noise on the diagonal.
linalg::Matrix build_joint_kernel(const Kernel& kernel, double rho,
                                  double src_noise, double tgt_noise,
                                  const std::vector<linalg::Vector>& xs_s,
                                  const std::vector<linalg::Vector>& xs_t) {
  const std::size_t n = xs_s.size(), m = xs_t.size();
  linalg::Matrix k(n + m, n + m);
  for (std::size_t i = 0; i < n + m; ++i) {
    const auto& xi = i < n ? xs_s[i] : xs_t[i - n];
    for (std::size_t j = i; j < n + m; ++j) {
      const auto& xj = j < n ? xs_s[j] : xs_t[j - n];
      double v = kernel(xi, xj);
      const bool cross = (i < n) != (j < n);
      if (cross) v *= rho;
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) k(i, i) += src_noise;
  for (std::size_t i = n; i < n + m; ++i) k(i, i) += tgt_noise;
  return k;
}

/// Same matrix from precomputed joint pairwise statistics (rows 0..n-1 are
/// source points). Entry-for-entry the same arithmetic as
/// build_joint_kernel, so results are bit-identical for pairwise-cache
/// kernels. Only the upper triangle is populated: the sole consumer is
/// joint_nll_from_cache, whose CholeskyFactor::compute() reads the upper
/// triangle only (skipping the mirror avoids n^2/2 strided stores).
linalg::Matrix build_joint_kernel_from_pairwise(
    const Kernel& kernel, const Kernel::PairwiseStats& stats,
    std::size_t n_src, double rho, double src_noise, double tgt_noise) {
  const std::size_t tot = stats.sqdist.rows();
  // Isotropic kernels leave the mismatch matrix empty; branch once, not per
  // entry, and keep the legacy eval_from_sqdist call for them (same bits).
  const bool mixed = stats.mismatch.rows() > 0;
  linalg::Matrix k(tot, tot);
  for (std::size_t i = 0; i < tot; ++i) {
    for (std::size_t j = i; j < tot; ++j) {
      double v = mixed ? kernel.eval_from_pairwise(stats.sqdist(i, j),
                                                   stats.mismatch(i, j))
                       : kernel.eval_from_sqdist(stats.sqdist(i, j));
      const bool cross = (i < n_src) != (j < n_src);
      if (cross) v *= rho;
      k(i, j) = v;
    }
  }
  for (std::size_t i = 0; i < n_src; ++i) k(i, i) += src_noise;
  for (std::size_t i = n_src; i < tot; ++i) k(i, i) += tgt_noise;
  return k;
}

}  // namespace

TransferGaussianProcess::TransferGaussianProcess(std::unique_ptr<Kernel> kernel)
    : kernel_(std::move(kernel)) {
  if (!kernel_) {
    throw std::invalid_argument("TransferGaussianProcess: null kernel");
  }
}

double TransferGaussianProcess::rho_from(double a, double b) {
  return 2.0 * std::pow(1.0 / (1.0 + a), b) - 1.0;
}

double TransferGaussianProcess::task_correlation() const {
  return rho_from(gamma_a_, gamma_b_);
}

void TransferGaussianProcess::fit(std::vector<linalg::Vector> source_xs,
                                  linalg::Vector source_ys,
                                  std::vector<linalg::Vector> target_xs,
                                  linalg::Vector target_ys) {
  if (source_xs.size() != source_ys.size() ||
      target_xs.size() != target_ys.size()) {
    throw std::invalid_argument("TransferGaussianProcess::fit: size mismatch");
  }
  if (target_xs.empty()) {
    throw std::invalid_argument(
        "TransferGaussianProcess::fit: need target observations");
  }
  source_xs_ = std::move(source_xs);
  source_ys_raw_ = std::move(source_ys);
  target_xs_ = std::move(target_xs);
  target_ys_raw_ = std::move(target_ys);
  restandardize();
  factorize();
}

void TransferGaussianProcess::restandardize() {
  src_mean_ = common::mean(source_ys_raw_);
  src_sd_ = std::max(1e-12, common::stddev(source_ys_raw_));
  tgt_mean_ = common::mean(target_ys_raw_);
  // With very few target points the sample deviation is unreliable; borrow
  // the source scale (the tasks' standardized surfaces are what correlate).
  const double tgt_sd_raw = common::stddev(target_ys_raw_);
  tgt_sd_ = target_ys_raw_.size() >= 3 && tgt_sd_raw > 1e-12
                ? tgt_sd_raw
                : (source_ys_raw_.empty() ? 1.0 : src_sd_);
  tgt_sd_ = std::max(1e-12, tgt_sd_);

  ys_std_.clear();
  ys_std_.reserve(source_ys_raw_.size() + target_ys_raw_.size());
  for (double y : source_ys_raw_) ys_std_.push_back((y - src_mean_) / src_sd_);
  for (double y : target_ys_raw_) ys_std_.push_back((y - tgt_mean_) / tgt_sd_);
}

void TransferGaussianProcess::factorize() {
  linalg::Matrix k = build_joint_kernel(
      *kernel_, task_correlation(), 1.0 / beta_s_, 1.0 / beta_t_,
      source_xs_, target_xs_);
  // Scale-aware adaptive jitter on the final fit: an ill-conditioned joint
  // kernel from near-duplicate reveals must not abort a long run.
  auto chol = linalg::CholeskyFactor::compute_with_adaptive_jitter(k);
  if (!chol) {
    throw std::runtime_error(
        "TransferGaussianProcess: joint kernel not positive definite");
  }
  chol_ = std::move(chol);
  alpha_ = chol_->solve(ys_std_);
  // Full re-factorizations invalidate cached whitened posterior solves;
  // rank-1 target appends (try_append_to_factor) do not.
  ++posterior_epoch_;
}

const linalg::CholeskyFactor& TransferGaussianProcess::factor() const {
  if (!chol_) throw std::runtime_error("TransferGaussianProcess: not fitted");
  return *chol_;
}

void TransferGaussianProcess::cross_rows(const linalg::Vector& x,
                                         std::size_t row0, std::size_t row1,
                                         double* out) const {
  const std::size_t n_src = source_xs_.size();
  assert(row1 <= n_src + target_xs_.size());
  const double rho = task_correlation();
  for (std::size_t i = row0; i < row1; ++i) {
    const auto& xi = i < n_src ? source_xs_[i] : target_xs_[i - n_src];
    const double scale = i < n_src ? rho : 1.0;
    out[i - row0] = scale * (*kernel_)(xi, x);
  }
}

bool TransferGaussianProcess::try_append_to_factor(const linalg::Vector& x) {
  // Only extend jitter-free factors: a full re-factorization restarts the
  // jitter escalation from zero and would otherwise diverge (see
  // GaussianProcess::try_append_to_factor).
  if (!chol_ || chol_->jitter_used() != 0.0) {
    return false;
  }
  const double rho = task_correlation();
  const std::size_t n_src = source_xs_.size();
  const std::size_t n_old = n_src + target_xs_.size() - 1;  // before append
  linalg::Vector k_new(n_old);
  for (std::size_t i = 0; i < n_old; ++i) {
    const auto& xi = i < n_src ? source_xs_[i] : target_xs_[i - n_src];
    double v = (*kernel_)(xi, x);
    if (i < n_src) v *= rho;  // cross-task attenuation
    k_new[i] = v;
  }
  const double k_self = (*kernel_)(x, x) + 1.0 / beta_t_;
  return chol_->append_row(k_new, k_self);
}

void TransferGaussianProcess::add_target_observation(const linalg::Vector& x,
                                                     double y) {
  if (!chol_) {
    throw std::runtime_error("TransferGaussianProcess: fit before adding");
  }
  target_xs_.push_back(x);
  target_ys_raw_.push_back(y);
  // Standardization is frozen between refits (same reasoning as the plain
  // GP): the new point is standardized with the current target stats.
  ys_std_.push_back((y - tgt_mean_) / tgt_sd_);
  if (try_append_to_factor(x)) {
    alpha_ = chol_->solve(ys_std_);
  } else {
    factorize();
  }
}

void TransferGaussianProcess::add_target_observation_batch(
    const std::vector<linalg::Vector>& xs, const linalg::Vector& ys) {
  if (!chol_) {
    throw std::runtime_error("TransferGaussianProcess: fit before adding");
  }
  if (xs.size() != ys.size()) {
    throw std::invalid_argument(
        "TransferGaussianProcess::add_target_observation_batch");
  }
  if (xs.empty()) return;
  bool appended = true;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    target_xs_.push_back(xs[i]);
    target_ys_raw_.push_back(ys[i]);
    ys_std_.push_back((ys[i] - tgt_mean_) / tgt_sd_);
    if (appended) appended = try_append_to_factor(xs[i]);
  }
  if (appended) {
    alpha_ = chol_->solve(ys_std_);
  } else {
    factorize();
  }
}

double TransferGaussianProcess::log_marginal_likelihood() const {
  if (!chol_) throw std::runtime_error("TransferGaussianProcess: not fitted");
  const double n = static_cast<double>(ys_std_.size());
  return -0.5 * linalg::dot(ys_std_, alpha_) - 0.5 * chol_->log_det() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

double TransferGaussianProcess::joint_nll(
    const linalg::Vector& log_params,
    const std::vector<std::size_t>& src_subset,
    const std::vector<std::size_t>& tgt_subset) const {
  for (double p : log_params) {
    if (!std::isfinite(p) || std::fabs(p) > 12.0) {
      return std::numeric_limits<double>::infinity();
    }
  }
  const std::size_t kdim = kernel_->num_hyperparameters();
  auto k = kernel_->clone();
  linalg::Vector kp(log_params.begin(),
                    log_params.begin() + static_cast<std::ptrdiff_t>(kdim));
  k->set_hyperparameters(kp);
  const double a = std::exp(log_params[kdim]);
  const double b = std::exp(log_params[kdim + 1]);
  const double src_noise = std::exp(log_params[kdim + 2]);
  const double tgt_noise = std::exp(log_params[kdim + 3]);
  const double rho = rho_from(a, b);

  std::vector<linalg::Vector> xs_s, xs_t;
  linalg::Vector ys;
  xs_s.reserve(src_subset.size());
  xs_t.reserve(tgt_subset.size());
  for (std::size_t i : src_subset) {
    xs_s.push_back(source_xs_[i]);
    ys.push_back(ys_std_[i]);
  }
  for (std::size_t i : tgt_subset) {
    xs_t.push_back(target_xs_[i]);
    ys.push_back(ys_std_[source_xs_.size() + i]);
  }
  linalg::Matrix gram =
      build_joint_kernel(*k, rho, src_noise, tgt_noise, xs_s, xs_t);
  auto chol = linalg::CholeskyFactor::compute_with_jitter(gram);
  if (!chol) return std::numeric_limits<double>::infinity();
  const linalg::Vector alpha = chol->solve(ys);
  const double n = static_cast<double>(ys.size());
  return 0.5 * linalg::dot(ys, alpha) + 0.5 * chol->log_det() +
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

double TransferGaussianProcess::joint_nll_from_cache(
    const linalg::Vector& log_params, const Kernel::PairwiseStats& stats,
    std::size_t n_src, const linalg::Vector& ys_subset) const {
  for (double p : log_params) {
    if (!std::isfinite(p) || std::fabs(p) > 12.0) {
      return std::numeric_limits<double>::infinity();
    }
  }
  const std::size_t kdim = kernel_->num_hyperparameters();
  auto k = kernel_->clone();
  linalg::Vector kp(log_params.begin(),
                    log_params.begin() + static_cast<std::ptrdiff_t>(kdim));
  k->set_hyperparameters(kp);
  const double a = std::exp(log_params[kdim]);
  const double b = std::exp(log_params[kdim + 1]);
  const double src_noise = std::exp(log_params[kdim + 2]);
  const double tgt_noise = std::exp(log_params[kdim + 3]);
  const double rho = rho_from(a, b);

  linalg::Matrix gram = build_joint_kernel_from_pairwise(
      *k, stats, n_src, rho, src_noise, tgt_noise);
  auto chol = linalg::CholeskyFactor::compute_with_jitter(gram);
  if (!chol) return std::numeric_limits<double>::infinity();
  const linalg::Vector alpha = chol->solve(ys_subset);
  const double n = static_cast<double>(ys_subset.size());
  return 0.5 * linalg::dot(ys_subset, alpha) + 0.5 * chol->log_det() +
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

TransferGaussianProcess::RefitPlan TransferGaussianProcess::prepare_refit(
    common::Rng& rng, const TransferFitOptions& options) const {
  if (!chol_) {
    throw std::runtime_error("TransferGaussianProcess: not fitted");
  }

  RefitPlan plan;
  plan.options = options;
  // Sorted subsets so the joint list preserves source-block ordering
  // (bit-frozen by journal replay).
  plan.src_subset = refit_subset(rng, source_xs_.size(),
                                 options.max_source_points, /*sorted=*/true);
  plan.tgt_subset = refit_subset(rng, target_xs_.size(),
                                 options.max_target_points, /*sorted=*/true);

  plan.current = kernel_->hyperparameters();
  plan.current.push_back(std::log(gamma_a_));
  plan.current.push_back(std::log(gamma_b_));
  plan.current.push_back(std::log(1.0 / beta_s_));
  plan.current.push_back(std::log(1.0 / beta_t_));
  plan.starts = refit_starts(rng, plan.current, options.restarts);
  return plan;
}

void TransferGaussianProcess::execute_refit(const RefitPlan& plan) {
  const TransferFitOptions& options = plan.options;

  // Pairwise cache over the joint subset (source rows first): squared
  // distances (and categorical mismatch counts, for the mixed kernel) are
  // hyper-parameter independent, so each NLL evaluation only re-applies the
  // scalar kernel map and the cross-task factor.
  const bool cached = kernel_->supports_pairwise_cache();
  Kernel::PairwiseStats stats;
  linalg::Vector ys_subset;
  if (cached) {
    const std::size_t subset_total =
        plan.src_subset.size() + plan.tgt_subset.size();
    std::vector<linalg::Vector> pts;
    pts.reserve(subset_total);
    ys_subset.reserve(subset_total);
    for (std::size_t i : plan.src_subset) {
      pts.push_back(source_xs_[i]);
      ys_subset.push_back(ys_std_[i]);
    }
    for (std::size_t i : plan.tgt_subset) {
      pts.push_back(target_xs_[i]);
      ys_subset.push_back(ys_std_[source_xs_.size() + i]);
    }
    stats = kernel_->pairwise_stats(pts);
  }
  auto objective = [&](const linalg::Vector& p) {
    return cached ? joint_nll_from_cache(p, stats, plan.src_subset.size(),
                                         ys_subset)
                  : joint_nll(p, plan.src_subset, plan.tgt_subset);
  };

  linalg::NelderMeadOptions nm;
  nm.max_evals = options.max_evals;
  nm.initial_step = 0.7;
  const MultiStartResult best =
      minimize_multistart(objective, plan.current, plan.starts, nm);

  if (std::isfinite(best.f)) {
    const std::size_t kdim = kernel_->num_hyperparameters();
    linalg::Vector kp(best.x.begin(),
                      best.x.begin() + static_cast<std::ptrdiff_t>(kdim));
    kernel_->set_hyperparameters(kp);
    gamma_a_ = std::exp(best.x[kdim]);
    gamma_b_ = std::exp(best.x[kdim + 1]);
    beta_s_ = 1.0 / std::max(options.min_noise_variance,
                             std::exp(best.x[kdim + 2]));
    beta_t_ = 1.0 / std::max(options.min_noise_variance,
                             std::exp(best.x[kdim + 3]));
  }
  restandardize();
  factorize();
}

void TransferGaussianProcess::optimize_hyperparameters(
    common::Rng& rng, const TransferFitOptions& options) {
  execute_refit(prepare_refit(rng, options));
}

Prediction TransferGaussianProcess::predict(const linalg::Vector& x) const {
  linalg::Vector means, vars;
  predict_batch({x}, means, vars);
  return {means[0], vars[0]};
}

void TransferGaussianProcess::predict_batch(
    const std::vector<linalg::Vector>& xs, linalg::Vector& means,
    linalg::Vector& variances) const {
  if (!chol_) throw std::runtime_error("TransferGaussianProcess: not fitted");
  const std::size_t m = xs.size();
  means.resize(m);
  variances.resize(m);
  if (m == 0) return;

  const std::size_t n_src = source_xs_.size();
  const std::size_t n_tot = n_src + target_xs_.size();
  const double rho = task_correlation();

  if (!tiled_prediction_) {
    // Reference path: one monolithic cross-covariance block. k_star:
    // (n_src + n_tgt) rows x m candidate columns; source rows carry the
    // cross-task factor (candidates are target-task points).
    linalg::Matrix k_star(n_tot, m);
    for (std::size_t i = 0; i < n_tot; ++i) {
      const auto& xi = i < n_src ? source_xs_[i] : target_xs_[i - n_src];
      const double scale = i < n_src ? rho : 1.0;
      double* row = k_star.row(i).data();
      for (std::size_t j = 0; j < m; ++j) {
        row[j] = scale * (*kernel_)(xi, xs[j]);
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      double mu = 0.0;
      for (std::size_t i = 0; i < n_tot; ++i) mu += k_star(i, j) * alpha_[i];
      means[j] = tgt_mean_ + tgt_sd_ * mu;
    }
    const linalg::Matrix v = chol_->solve_lower_multi(k_star);
    for (std::size_t j = 0; j < m; ++j) {
      double vv = 0.0;
      for (std::size_t i = 0; i < n_tot; ++i) vv += v(i, j) * v(i, j);
      const double var_std = (*kernel_)(xs[j], xs[j]) - vv;
      variances[j] = std::max(0.0, var_std) * tgt_sd_ * tgt_sd_;
    }
    return;
  }
  // Tiled path: candidate panels fanned across the thread pool; per-column
  // arithmetic is identical to the one-shot block (see
  // GaussianProcess::predict_batch), so the results are bit-identical.
  constexpr std::size_t kTile = 256;
  auto process = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t t0 = c0; t0 < c1; t0 += kTile) {
      const std::size_t t1 = std::min(t0 + kTile, c1);
      const std::size_t w = t1 - t0;
      linalg::Matrix panel(n_tot, w);
      for (std::size_t i = 0; i < n_tot; ++i) {
        const auto& xi = i < n_src ? source_xs_[i] : target_xs_[i - n_src];
        const double scale = i < n_src ? rho : 1.0;
        double* row = panel.row(i).data();
        for (std::size_t j = 0; j < w; ++j) {
          row[j] = scale * (*kernel_)(xi, xs[t0 + j]);
        }
      }
      for (std::size_t j = 0; j < w; ++j) {
        double mu = 0.0;
        for (std::size_t i = 0; i < n_tot; ++i) mu += panel(i, j) * alpha_[i];
        means[t0 + j] = tgt_mean_ + tgt_sd_ * mu;
      }
      const linalg::Matrix v = chol_->solve_lower_multi(panel);
      for (std::size_t j = 0; j < w; ++j) {
        double vv = 0.0;
        for (std::size_t i = 0; i < n_tot; ++i) vv += v(i, j) * v(i, j);
        const double var_std = (*kernel_)(xs[t0 + j], xs[t0 + j]) - vv;
        variances[t0 + j] = std::max(0.0, var_std) * tgt_sd_ * tgt_sd_;
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
