// Stationary covariance kernels for Gaussian-process regression.
//
// Inputs are tool-parameter configurations encoded into the unit cube by
// flow::ParameterSpace, so a single isotropic lengthscale is meaningful.
// Mixed spaces with unordered categorical parameters use MixedSpaceKernel.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace ppat::gp {

/// Covariance function interface. Hyper-parameters are exposed as a flat
/// log-space vector so optimizers can treat them uniformly; implementations
/// must keep get/set round-trippable.
class Kernel {
 public:
  virtual ~Kernel() = default;

  virtual double operator()(std::span<const double> a,
                            std::span<const double> b) const = 0;

  virtual std::size_t num_hyperparameters() const = 0;
  virtual linalg::Vector hyperparameters() const = 0;  ///< log-space
  virtual void set_hyperparameters(const linalg::Vector& log_params) = 0;

  virtual std::unique_ptr<Kernel> clone() const = 0;
  virtual std::string name() const = 0;

  /// Gram matrix K(X, X) (symmetric). Rows are computed on the global
  /// thread pool above a size threshold; entries are independent, so the
  /// result is bit-identical for any thread count.
  linalg::Matrix gram(const std::vector<linalg::Vector>& xs) const;

  /// Hyper-parameter-independent pairwise statistics, cached once per refit
  /// and re-mapped per candidate hyper-parameter point. For the isotropic
  /// kernels sqdist is the squared-distance matrix and mismatch stays
  /// empty; for MixedSpaceKernel sqdist carries the continuous-dim squared
  /// distances and mismatch the categorical mismatch counts.
  struct PairwiseStats {
    linalg::Matrix sqdist;
    linalg::Matrix mismatch;  ///< empty unless the kernel has categorical dims
  };

  /// True when the kernel's covariance is a function of per-pair statistics
  /// that do not depend on the hyper-parameters, so pairwise_stats and
  /// gram_from_pairwise are usable.
  virtual bool supports_pairwise_cache() const { return false; }

  /// Pairwise statistics among xs. Requires supports_pairwise_cache().
  /// Default: the squared-distance matrix, the statistic of every isotropic
  /// kernel; kernels with categorical structure override it.
  virtual PairwiseStats pairwise_stats(
      const std::vector<linalg::Vector>& xs) const;

  /// Gram matrix from cached pairwise statistics. Requires
  /// supports_pairwise_cache(); each entry must be bit-identical to
  /// operator() on a pair with those statistics. Only the upper triangle
  /// (plus diagonal) is populated — enough for
  /// linalg::CholeskyFactor::compute(), its sole consumer. Kernels override
  /// it with a devirtualized loop because it sits on the refit hot path.
  virtual linalg::Matrix gram_from_pairwise(const PairwiseStats& stats) const;
};

/// ||a - b||^2, accumulated in index order (the shared primitive behind the
/// isotropic kernels and the distance cache — same code path, same bits).
double squared_distance(std::span<const double> a, std::span<const double> b);

/// Isotropic squared-exponential: s2 * exp(-||a-b||^2 / (2 l^2)).
/// Hyper-parameters (log-space): [log l, log s2].
class SquaredExponentialKernel final : public Kernel {
 public:
  explicit SquaredExponentialKernel(double lengthscale = 0.3,
                                    double signal_variance = 1.0);

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override;
  bool supports_pairwise_cache() const override { return true; }
  linalg::Matrix gram_from_pairwise(const PairwiseStats& stats) const override;
  std::size_t num_hyperparameters() const override { return 2; }
  linalg::Vector hyperparameters() const override;
  void set_hyperparameters(const linalg::Vector& log_params) override;
  std::unique_ptr<Kernel> clone() const override;
  std::string name() const override { return "se_iso"; }

  double lengthscale() const { return lengthscale_; }
  double signal_variance() const { return signal_variance_; }

 private:
  double lengthscale_;
  double signal_variance_;
};

/// Mixed continuous/categorical kernel for encoded mixed-type spaces:
///
///   k(a, b) = s2 * exp( -||a_c - b_c||^2 / (2 l_cont^2)  -  H(a_k, b_k) / l_cat )
///
/// where a_c are the continuous/ordinal coordinates (squared-exponential
/// part) and H is the Hamming distance over the categorical coordinates
/// (exponential-Hamming part — the standard product-of-kernels treatment of
/// unordered dims, where "how far apart" two categories are is meaningless
/// and only match/mismatch counts). Inputs are unit-cube encodings from
/// flow::ParameterSpace; distinct discrete levels encode to distinct
/// midpoints, so exact coordinate comparison is the level-identity test.
/// Inactive conditional dims must be imputed at their canonical value
/// BEFORE encoding (ParameterSpace::decode does this),
/// which makes two designs that differ only in dormant parameters
/// kernel-identical.
///
/// Hyper-parameters (log-space): [log l_cont, log l_cat, log s2].
/// Not a function of Euclidean distance alone, but of the
/// hyper-parameter-independent pair (continuous sqdist, categorical
/// mismatch count), so the refit hot path caches both once per subset
/// (pairwise_stats) and each NLL evaluation re-applies only the scalar map,
/// bit-identical to operator().
class MixedSpaceKernel final : public Kernel {
 public:
  /// `categorical[i]` != 0 marks dimension i as unordered (Hamming part).
  /// Dimensions must match the encoded inputs; at least one dimension total.
  explicit MixedSpaceKernel(std::vector<std::uint8_t> categorical,
                            double cont_lengthscale = 0.3,
                            double cat_lengthscale = 1.0,
                            double signal_variance = 1.0);

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override;
  bool supports_pairwise_cache() const override { return true; }
  PairwiseStats pairwise_stats(
      const std::vector<linalg::Vector>& xs) const override;
  linalg::Matrix gram_from_pairwise(const PairwiseStats& stats) const override;
  std::size_t num_hyperparameters() const override { return 3; }
  linalg::Vector hyperparameters() const override;
  void set_hyperparameters(const linalg::Vector& log_params) override;
  std::unique_ptr<Kernel> clone() const override;
  std::string name() const override { return "mixed"; }

  const std::vector<std::uint8_t>& categorical_mask() const {
    return categorical_;
  }

 private:
  std::vector<std::uint8_t> categorical_;
  double cont_lengthscale_;
  double cat_lengthscale_;
  double signal_variance_;
};

/// Matern 5/2 (isotropic): s2 * (1 + r + r^2/3) exp(-r), r = sqrt5 * d / l.
/// Hyper-parameters (log-space): [log l, log s2].
class Matern52Kernel final : public Kernel {
 public:
  explicit Matern52Kernel(double lengthscale = 0.3,
                          double signal_variance = 1.0);

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override;
  bool supports_pairwise_cache() const override { return true; }
  linalg::Matrix gram_from_pairwise(const PairwiseStats& stats) const override;
  std::size_t num_hyperparameters() const override { return 2; }
  linalg::Vector hyperparameters() const override;
  void set_hyperparameters(const linalg::Vector& log_params) override;
  std::unique_ptr<Kernel> clone() const override;
  std::string name() const override { return "matern52"; }

 private:
  double lengthscale_;
  double signal_variance_;
};

}  // namespace ppat::gp
