#include "gp/exact_gp.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "gp/refit.hpp"

namespace ppat::gp {

linalg::Matrix joint_gram(linalg::Matrix base, std::size_t n_source,
                          double rho, double source_noise,
                          double target_noise) {
  const std::size_t n = base.rows();
  for (std::size_t i = 0; i < n_source; ++i) {
    double* row = base.row(i).data();
    for (std::size_t j = n_source; j < n; ++j) row[j] *= rho;
  }
  for (std::size_t i = 0; i < n; ++i) {
    base(i, i) += i < n_source ? source_noise : target_noise;
  }
  return base;
}

ExactGp::ExactGp(const char* name, std::unique_ptr<Kernel> kernel,
                 double noise_variance)
    : kernel_(std::move(kernel)),
      source_noise_(noise_variance),
      target_noise_(noise_variance),
      name_(name) {
  if (!kernel_) throw std::invalid_argument(std::string(name_) + ": null kernel");
  if (noise_variance <= 0.0) {
    throw std::invalid_argument(std::string(name_) +
                                ": noise must be positive");
  }
}

void ExactGp::require_fitted() const {
  if (!chol_) throw std::runtime_error(std::string(name_) + ": not fitted");
}

void ExactGp::fit(std::vector<linalg::Vector> source_xs,
                  linalg::Vector source_ys,
                  std::vector<linalg::Vector> target_xs,
                  linalg::Vector target_ys) {
  if (source_xs.size() != source_ys.size() ||
      target_xs.size() != target_ys.size() || target_xs.empty()) {
    throw std::invalid_argument(std::string(name_) +
                                "::fit: bad training data");
  }
  n_source_ = source_xs.size();
  xs_ = std::move(source_xs);
  xs_.insert(xs_.end(), std::make_move_iterator(target_xs.begin()),
             std::make_move_iterator(target_xs.end()));
  ys_raw_ = std::move(source_ys);
  ys_raw_.insert(ys_raw_.end(), target_ys.begin(), target_ys.end());
  standardize();
  factorize();
}

void ExactGp::standardize() {
  const auto [source, target] = output_scales();
  target_scale_ = target;
  ys_std_.resize(ys_raw_.size());
  for (std::size_t i = 0; i < ys_raw_.size(); ++i) {
    const Scale& s = i < n_source_ ? source : target;
    ys_std_[i] = (ys_raw_[i] - s.mean) / s.sd;
  }
}

void ExactGp::factorize() {
  // The final fit escalates jitter with a scale-aware cap (and logs what it
  // needed): near-duplicate revealed points must degrade conditioning
  // gracefully, not abort a long tuning run.
  auto chol = linalg::CholeskyFactor::compute_with_adaptive_jitter(
      joint_gram(kernel_->gram(xs_), n_source_, rho_, source_noise_,
                 target_noise_));
  if (!chol) {
    throw std::runtime_error(std::string(name_) +
                             ": kernel matrix not positive definite");
  }
  chol_ = std::move(chol);
  alpha_ = chol_->solve(ys_std_);
  // Cached whitened posterior solves are against the old factor; a full
  // re-factorization (unlike a rank-1 append) invalidates them.
  ++posterior_epoch_;
}

const linalg::CholeskyFactor& ExactGp::factor() const {
  require_fitted();
  return *chol_;
}

void ExactGp::cross_rows(const linalg::Vector& x, std::size_t row0,
                         std::size_t row1, double* out) const {
  assert(row1 <= xs_.size());
  for (std::size_t i = row0; i < row1; ++i) {
    const double scale = i < n_source_ ? rho_ : 1.0;
    out[i - row0] = scale * (*kernel_)(xs_[i], x);
  }
}

bool ExactGp::try_append_to_factor(const linalg::Vector& x) {
  // The rank-1 path is only valid against a jitter-free factor: a full
  // re-factorization restarts the jitter escalation at zero, so extending a
  // jittered factor would diverge from it.
  if (!chol_ || chol_->jitter_used() != 0.0) return false;
  const std::size_t n = xs_.size() - 1;  // rows before the append
  linalg::Vector k_new(n);
  cross_rows(x, 0, n, k_new.data());
  return chol_->append_row(k_new, (*kernel_)(x, x) + target_noise_);
}

void ExactGp::add_observation(const linalg::Vector& x, double y) {
  add_observation_batch({x}, {y});
}

void ExactGp::add_observation_batch(const std::vector<linalg::Vector>& xs,
                                    const linalg::Vector& ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument(std::string(name_) +
                                "::add_observation_batch: size mismatch");
  }
  if (xs.empty()) return;
  std::size_t next = 0;
  if (xs_.empty()) {
    fit({}, {}, {xs[0]}, {ys[0]});
    next = 1;
  }
  bool appended = true;
  for (; next < xs.size(); ++next) {
    xs_.push_back(xs[next]);
    ys_raw_.push_back(ys[next]);
    // The standardization stays frozen between refits so alpha stays
    // coherent; execute_refit re-standardizes from scratch.
    ys_std_.push_back((ys[next] - target_scale_.mean) / target_scale_.sd);
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

double ExactGp::log_marginal_likelihood() const {
  require_fitted();
  return -gaussian_nll(ys_std_, alpha_, chol_->log_det());
}

void ExactGp::predict_batch(const std::vector<linalg::Vector>& xs,
                            linalg::Vector& means,
                            linalg::Vector& variances) const {
  require_fitted();
  const std::size_t m = xs.size();
  const std::size_t n = xs_.size();
  means.resize(m);
  variances.resize(m);
  if (m == 0) return;
  const double mean = target_scale_.mean;
  const double sd = target_scale_.sd;
  // Candidates [c0, c1) as one panel: cross-covariance block (a direct
  // kernel call per element, rho on source rows), triangular solve, and
  // ascending-row reductions.
  auto panel = [&](std::size_t c0, std::size_t c1) {
    const std::size_t w = c1 - c0;
    linalg::Matrix k_star(n, w);
    for (std::size_t i = 0; i < n; ++i) {
      const double scale = i < n_source_ ? rho_ : 1.0;
      double* row = k_star.row(i).data();
      for (std::size_t j = 0; j < w; ++j) {
        row[j] = scale * (*kernel_)(xs_[i], xs[c0 + j]);
      }
    }
    for (std::size_t j = 0; j < w; ++j) {
      double mu = 0.0;
      for (std::size_t i = 0; i < n; ++i) mu += k_star(i, j) * alpha_[i];
      means[c0 + j] = mean + sd * mu;
    }
    const linalg::Matrix v = chol_->solve_lower_multi(k_star);
    for (std::size_t j = 0; j < w; ++j) {
      double vv = 0.0;
      for (std::size_t i = 0; i < n; ++i) vv += v(i, j) * v(i, j);
      const double var_std = (*kernel_)(xs[c0 + j], xs[c0 + j]) - vv;
      variances[c0 + j] = std::max(0.0, var_std) * sd * sd;
    }
  };
  if (!tiled_prediction_) {
    panel(0, m);  // reference: one monolithic n x m block
    return;
  }
  // Tiled path: candidate columns are independent, so they process in
  // fixed-width panels that stay cache-resident instead of streaming an
  // n x m block three times, and panels fan out across the thread pool.
  // Each column's arithmetic is the one-shot sequence exactly, so results
  // are bit-identical for every tile width and thread count.
  constexpr std::size_t kTile = 256;
  auto tiles = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t t0 = c0; t0 < c1; t0 += kTile) {
      panel(t0, std::min(t0 + kTile, c1));
    }
  };
  if (m >= 2 * kTile) {
    common::parallel_for_blocks(0, m, tiles, kTile);
  } else {
    tiles(0, m);
  }
}

}  // namespace ppat::gp
