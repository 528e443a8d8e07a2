#include "gp/kernel.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"

namespace ppat::gp {
namespace {

// Gram matrices smaller than this many entries are not worth a fork/join
// round trip.
constexpr std::size_t kParallelGramEntries = 4096;

}  // namespace

double squared_distance(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

linalg::Matrix Kernel::gram(const std::vector<linalg::Vector>& xs) const {
  const std::size_t n = xs.size();
  linalg::Matrix k(n, n);
  // Each row owner writes (i, j) and the mirror (j, i) for j >= i; every
  // entry has exactly one writer, so row blocks race-free and the values do
  // not depend on the partition.
  auto fill_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double v = (*this)(xs[i], xs[j]);
        k(i, j) = v;
        k(j, i) = v;
      }
    }
  };
  if (n * n >= kParallelGramEntries) {
    common::parallel_for_blocks(0, n, fill_rows, 8);
  } else {
    fill_rows(0, n);
  }
  return k;
}

Kernel::PairwiseStats Kernel::pairwise_stats(
    const std::vector<linalg::Vector>& xs) const {
  if (!supports_pairwise_cache()) {
    throw std::logic_error("Kernel::pairwise_stats: " + name() +
                           " does not support the pairwise cache");
  }
  const std::size_t n = xs.size();
  PairwiseStats stats;
  stats.sqdist = linalg::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = squared_distance(xs[i], xs[j]);
      stats.sqdist(i, j) = v;
      stats.sqdist(j, i) = v;
    }
  }
  return stats;
}

linalg::Matrix Kernel::gram_from_pairwise(const PairwiseStats&) const {
  throw std::logic_error("Kernel::gram_from_pairwise: " + name() +
                         " does not support the pairwise cache");
}

// ---- SquaredExponentialKernel ----

SquaredExponentialKernel::SquaredExponentialKernel(double lengthscale,
                                                   double signal_variance)
    : lengthscale_(lengthscale), signal_variance_(signal_variance) {
  assert(lengthscale > 0.0 && signal_variance > 0.0);
}

double SquaredExponentialKernel::operator()(std::span<const double> a,
                                            std::span<const double> b) const {
  return signal_variance_ * std::exp(-0.5 * squared_distance(a, b) /
                                    (lengthscale_ * lengthscale_));
}

linalg::Matrix SquaredExponentialKernel::gram_from_pairwise(
    const PairwiseStats& stats) const {
  const linalg::Matrix& sqdist = stats.sqdist;
  assert(sqdist.rows() == sqdist.cols());
  const std::size_t n = sqdist.rows();
  linalg::Matrix k(n, n);
  // Same chain as operator() — (-0.5 * d), / l^2, exp, * s2 — with the
  // member loads hoisted out of the n^2/2 loop.
  const double sv = signal_variance_;
  const double ll = lengthscale_ * lengthscale_;
  for (std::size_t i = 0; i < n; ++i) {
    const double* sq = sqdist.row(i).data();
    double* ki = k.row(i).data();
    for (std::size_t j = i; j < n; ++j) {
      ki[j] = sv * std::exp(-0.5 * sq[j] / ll);
    }
  }
  return k;
}

linalg::Vector SquaredExponentialKernel::hyperparameters() const {
  return {std::log(lengthscale_), std::log(signal_variance_)};
}

void SquaredExponentialKernel::set_hyperparameters(
    const linalg::Vector& log_params) {
  assert(log_params.size() == 2);
  lengthscale_ = std::exp(log_params[0]);
  signal_variance_ = std::exp(log_params[1]);
}

std::unique_ptr<Kernel> SquaredExponentialKernel::clone() const {
  return std::make_unique<SquaredExponentialKernel>(*this);
}

// ---- MixedSpaceKernel ----

MixedSpaceKernel::MixedSpaceKernel(std::vector<std::uint8_t> categorical,
                                   double cont_lengthscale,
                                   double cat_lengthscale,
                                   double signal_variance)
    : categorical_(std::move(categorical)),
      cont_lengthscale_(cont_lengthscale),
      cat_lengthscale_(cat_lengthscale),
      signal_variance_(signal_variance) {
  if (categorical_.empty()) {
    throw std::invalid_argument("MixedSpaceKernel: need >= 1 dimension");
  }
  assert(cont_lengthscale > 0.0 && cat_lengthscale > 0.0 &&
         signal_variance > 0.0);
}

double MixedSpaceKernel::operator()(std::span<const double> a,
                                    std::span<const double> b) const {
  assert(a.size() == categorical_.size() && b.size() == categorical_.size());
  double sq = 0.0;       // squared distance over continuous/ordinal dims
  double hamming = 0.0;  // mismatch count over categorical dims
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (categorical_[i] != 0) {
      // Encoded level midpoints are exact per level, so != is the
      // level-identity test (no tolerance games on the hot path).
      if (a[i] != b[i]) hamming += 1.0;
    } else {
      const double d = a[i] - b[i];
      sq += d * d;
    }
  }
  return signal_variance_ *
         std::exp(-0.5 * sq / (cont_lengthscale_ * cont_lengthscale_) -
                  hamming / cat_lengthscale_);
}

Kernel::PairwiseStats MixedSpaceKernel::pairwise_stats(
    const std::vector<linalg::Vector>& xs) const {
  const std::size_t n = xs.size();
  PairwiseStats stats;
  stats.sqdist = linalg::Matrix(n, n);
  stats.mismatch = linalg::Matrix(n, n);
  // One pass per pair, splitting the dimensions exactly as operator() does:
  // sq accumulates continuous dims in increasing index order (the same
  // additions in the same order, so the cached value is bit-identical to
  // the interleaved loop's), mismatch counts categorical level differences.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const auto& a = xs[i];
      const auto& b = xs[j];
      double sq = 0.0;
      double hamming = 0.0;
      for (std::size_t d = 0; d < categorical_.size(); ++d) {
        if (categorical_[d] != 0) {
          if (a[d] != b[d]) hamming += 1.0;
        } else {
          const double diff = a[d] - b[d];
          sq += diff * diff;
        }
      }
      stats.sqdist(i, j) = sq;
      stats.sqdist(j, i) = sq;
      stats.mismatch(i, j) = hamming;
      stats.mismatch(j, i) = hamming;
    }
  }
  return stats;
}

linalg::Matrix MixedSpaceKernel::gram_from_pairwise(
    const PairwiseStats& stats) const {
  assert(stats.sqdist.rows() == stats.sqdist.cols() &&
         stats.mismatch.rows() == stats.sqdist.rows());
  const std::size_t n = stats.sqdist.rows();
  linalg::Matrix k(n, n);
  // Same chain as operator() — (-0.5 * sq / l_c^2) - (mm / l_k), exp,
  // * s2 — with the member loads hoisted out of the n^2/2 loop.
  const double sv = signal_variance_;
  const double ll = cont_lengthscale_ * cont_lengthscale_;
  const double cl = cat_lengthscale_;
  for (std::size_t i = 0; i < n; ++i) {
    const double* sq = stats.sqdist.row(i).data();
    const double* mm = stats.mismatch.row(i).data();
    double* ki = k.row(i).data();
    for (std::size_t j = i; j < n; ++j) {
      ki[j] = sv * std::exp(-0.5 * sq[j] / ll - mm[j] / cl);
    }
  }
  return k;
}

linalg::Vector MixedSpaceKernel::hyperparameters() const {
  return {std::log(cont_lengthscale_), std::log(cat_lengthscale_),
          std::log(signal_variance_)};
}

void MixedSpaceKernel::set_hyperparameters(const linalg::Vector& log_params) {
  assert(log_params.size() == 3);
  cont_lengthscale_ = std::exp(log_params[0]);
  cat_lengthscale_ = std::exp(log_params[1]);
  signal_variance_ = std::exp(log_params[2]);
}

std::unique_ptr<Kernel> MixedSpaceKernel::clone() const {
  return std::make_unique<MixedSpaceKernel>(*this);
}

// ---- Matern52Kernel ----

Matern52Kernel::Matern52Kernel(double lengthscale, double signal_variance)
    : lengthscale_(lengthscale), signal_variance_(signal_variance) {
  assert(lengthscale > 0.0 && signal_variance > 0.0);
}

double Matern52Kernel::operator()(std::span<const double> a,
                                  std::span<const double> b) const {
  const double r = std::sqrt(5.0 * squared_distance(a, b)) / lengthscale_;
  return signal_variance_ * (1.0 + r + r * r / 3.0) * std::exp(-r);
}

linalg::Matrix Matern52Kernel::gram_from_pairwise(
    const PairwiseStats& stats) const {
  const linalg::Matrix& sqdist = stats.sqdist;
  assert(sqdist.rows() == sqdist.cols());
  const std::size_t n = sqdist.rows();
  linalg::Matrix k(n, n);
  // Verbatim operator() expression with the member loads hoisted.
  const double sv = signal_variance_;
  const double l = lengthscale_;
  for (std::size_t i = 0; i < n; ++i) {
    const double* sq = sqdist.row(i).data();
    double* ki = k.row(i).data();
    for (std::size_t j = i; j < n; ++j) {
      const double r = std::sqrt(5.0 * sq[j]) / l;
      ki[j] = sv * (1.0 + r + r * r / 3.0) * std::exp(-r);
    }
  }
  return k;
}

linalg::Vector Matern52Kernel::hyperparameters() const {
  return {std::log(lengthscale_), std::log(signal_variance_)};
}

void Matern52Kernel::set_hyperparameters(const linalg::Vector& log_params) {
  assert(log_params.size() == 2);
  lengthscale_ = std::exp(log_params[0]);
  signal_variance_ = std::exp(log_params[1]);
}

std::unique_ptr<Kernel> Matern52Kernel::clone() const {
  return std::make_unique<Matern52Kernel>(*this);
}

}  // namespace ppat::gp
