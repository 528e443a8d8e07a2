#include "gp/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"

namespace ppat::gp {
namespace {

TEST(SquaredExponential, ValueAtZeroDistanceIsSignalVariance) {
  SquaredExponentialKernel k(0.5, 2.0);
  const linalg::Vector x = {0.3, 0.7};
  EXPECT_DOUBLE_EQ(k(x, x), 2.0);
}

TEST(SquaredExponential, DecaysWithDistance) {
  SquaredExponentialKernel k(0.5, 1.0);
  const linalg::Vector a = {0.0}, b = {0.5}, c = {1.0};
  EXPECT_GT(k(a, a), k(a, b));
  EXPECT_GT(k(a, b), k(a, c));
  // Known value: exp(-0.5 * (0.5/0.5)^2) = exp(-0.5).
  EXPECT_NEAR(k(a, b), std::exp(-0.5), 1e-12);
}

TEST(SquaredExponential, Symmetric) {
  SquaredExponentialKernel k(0.3, 1.5);
  const linalg::Vector a = {0.1, 0.9}, b = {0.6, 0.2};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
}

TEST(SquaredExponential, HyperparameterRoundTrip) {
  SquaredExponentialKernel k(0.25, 3.0);
  const auto h = k.hyperparameters();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_NEAR(std::exp(h[0]), 0.25, 1e-12);
  EXPECT_NEAR(std::exp(h[1]), 3.0, 1e-12);
  SquaredExponentialKernel k2(1.0, 1.0);
  k2.set_hyperparameters(h);
  EXPECT_DOUBLE_EQ(k2.lengthscale(), k.lengthscale());
  EXPECT_DOUBLE_EQ(k2.signal_variance(), k.signal_variance());
}

TEST(SquaredExponential, CloneIsIndependent) {
  SquaredExponentialKernel k(0.5, 1.0);
  auto c = k.clone();
  c->set_hyperparameters({std::log(0.1), std::log(5.0)});
  EXPECT_DOUBLE_EQ(k.lengthscale(), 0.5);
  const linalg::Vector x = {0.0};
  EXPECT_NE((*c)(x, x), k(x, x));
}

TEST(Matern52, BasicShape) {
  Matern52Kernel k(0.5, 1.0);
  const linalg::Vector a = {0.0}, b = {0.4};
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);
  EXPECT_GT(k(a, b), 0.0);
  EXPECT_LT(k(a, b), 1.0);
  // Matern 5/2 has heavier tails than SE at the same lengthscale.
  SquaredExponentialKernel se(0.5, 1.0);
  const linalg::Vector far = {2.0};
  EXPECT_GT(k(a, far), se(a, far));
}

TEST(Matern52, HyperparameterRoundTrip) {
  Matern52Kernel k(0.7, 1.3);
  auto c = k.clone();
  c->set_hyperparameters(k.hyperparameters());
  const linalg::Vector a = {0.2}, b = {0.9};
  EXPECT_DOUBLE_EQ((*c)(a, b), k(a, b));
}

// Property: Gram matrices of all kernels are PSD (factorizable with jitter)
// across random inputs and hyper-parameters.
class KernelPsd : public ::testing::TestWithParam<int> {};

TEST_P(KernelPsd, GramIsPositiveSemidefinite) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<linalg::Vector> xs;
  for (int i = 0; i < 15; ++i) {
    xs.push_back({rng.uniform01(), rng.uniform01(), rng.uniform01()});
  }
  const double l = std::exp(rng.uniform(-2.0, 1.0));
  const double s2 = std::exp(rng.uniform(-1.0, 1.0));
  std::vector<std::unique_ptr<Kernel>> kernels;
  kernels.push_back(std::make_unique<SquaredExponentialKernel>(l, s2));
  kernels.push_back(std::make_unique<Matern52Kernel>(l, s2));
  for (const auto& k : kernels) {
    const auto gram = k->gram(xs);
    // Symmetry.
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t j = 0; j < xs.size(); ++j) {
        EXPECT_NEAR(gram(i, j), gram(j, i), 1e-12);
      }
    }
    EXPECT_TRUE(
        linalg::CholeskyFactor::compute_with_jitter(gram).has_value())
        << k->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPsd, ::testing::Range(1, 7));

TEST(MixedSpaceKernel, HammingOverCategoricalSeOverContinuous) {
  // dims: [continuous, categorical, categorical]
  MixedSpaceKernel k({0, 1, 1}, 0.5, 2.0, 1.5);
  const linalg::Vector a = {0.2, 0.25, 0.75};
  // Identical points: k = s2.
  EXPECT_DOUBLE_EQ(k(a, a), 1.5);
  // One categorical mismatch: s2 * exp(-1 / l_cat); the numeric gap size
  // (0.25 vs 0.9) must NOT matter for a categorical dim.
  const linalg::Vector b1 = {0.2, 0.9, 0.75};
  const linalg::Vector b2 = {0.2, 0.3, 0.75};
  EXPECT_DOUBLE_EQ(k(a, b1), 1.5 * std::exp(-1.0 / 2.0));
  EXPECT_DOUBLE_EQ(k(a, b2), k(a, b1));
  // Two mismatches: exp(-2 / l_cat).
  const linalg::Vector c = {0.2, 0.9, 0.1};
  EXPECT_DOUBLE_EQ(k(a, c), 1.5 * std::exp(-2.0 / 2.0));
  // Continuous dim uses squared-exponential distance.
  const linalg::Vector d = {0.6, 0.25, 0.75};
  EXPECT_DOUBLE_EQ(k(a, d), 1.5 * std::exp(-0.5 * 0.16 / 0.25));
}

TEST(MixedSpaceKernel, HyperparametersRoundTripAndClone) {
  MixedSpaceKernel k({1, 0}, 0.3, 1.0, 1.0);
  EXPECT_EQ(k.num_hyperparameters(), 3u);
  EXPECT_EQ(k.name(), "mixed");
  const linalg::Vector logp = {std::log(0.7), std::log(3.0), std::log(2.0)};
  k.set_hyperparameters(logp);
  const auto got = k.hyperparameters();
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(got[i], logp[i], 1e-12);
  const auto cl = k.clone();
  const linalg::Vector a = {0.25, 0.4};
  const linalg::Vector b = {0.75, 0.1};
  EXPECT_DOUBLE_EQ((*cl)(a, b), k(a, b));
}

TEST(MixedSpaceKernel, GramIsPsd) {
  MixedSpaceKernel k({0, 1, 1, 0});
  common::Rng rng(3);
  std::vector<linalg::Vector> xs;
  for (int i = 0; i < 24; ++i) {
    linalg::Vector x(4);
    x[0] = rng.uniform01();
    x[1] = (rng.uniform01() < 0.5) ? 0.25 : 0.75;     // bool midpoints
    x[2] = (1.0 + std::floor(rng.uniform01() * 3.0)) / 3.0 - 1.0 / 6.0;
    x[3] = rng.uniform01();
    xs.push_back(std::move(x));
  }
  const auto gram = k.gram(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      EXPECT_NEAR(gram(i, j), gram(j, i), 1e-12);
    }
  }
  EXPECT_TRUE(linalg::CholeskyFactor::compute_with_jitter(gram).has_value());
}

TEST(MixedSpaceKernel, RejectsEmptyMask) {
  EXPECT_THROW(MixedSpaceKernel({}), std::invalid_argument);
}

/// Mixed points over a {cont, bool, enum, cont} mask, with enough
/// categorical collisions to exercise both matched and mismatched levels.
std::vector<linalg::Vector> mixed_points(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<linalg::Vector> xs;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector x(4);
    x[0] = rng.uniform01();
    x[1] = (rng.uniform01() < 0.5) ? 0.25 : 0.75;
    x[2] = (1.0 + std::floor(rng.uniform01() * 3.0)) / 3.0 - 1.0 / 6.0;
    x[3] = rng.uniform01();
    xs.push_back(std::move(x));
  }
  return xs;
}

TEST(MixedSpaceKernel, PairwiseCacheIsBitIdenticalToDirect) {
  MixedSpaceKernel k({0, 1, 1, 0}, 0.4, 1.7, 2.3);
  ASSERT_TRUE(k.supports_pairwise_cache());
  const auto xs = mixed_points(24, 11);
  const auto stats = k.pairwise_stats(xs);
  ASSERT_EQ(stats.sqdist.rows(), xs.size());
  ASSERT_EQ(stats.mismatch.rows(), xs.size());

  // Exact equality on the populated (upper) triangle, not tolerance: the
  // cached chain must replay operator()'s floating-point operations in the
  // same order.
  const auto cached = k.gram_from_pairwise(stats);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = i; j < xs.size(); ++j) {
      EXPECT_EQ(cached(i, j), k(xs[i], xs[j])) << i << "," << j;
    }
  }
}

TEST(MixedSpaceKernel, PairwiseCacheSurvivesHyperparameterChange) {
  // The whole point of the cache: stats are hyper-parameter independent, so
  // one pairwise_stats() serves every candidate point of the refit search.
  MixedSpaceKernel k({1, 0, 0});
  const auto xs = mixed_points(12, 5);
  // mixed_points' mask differs; rebuild dim-3 points for this mask.
  std::vector<linalg::Vector> pts;
  for (const auto& x : xs) pts.push_back({x[1], x[0], x[3]});
  const auto stats = k.pairwise_stats(pts);
  auto probe = k.clone();
  probe->set_hyperparameters({std::log(0.17), std::log(3.0), std::log(0.6)});
  const auto direct = probe->gram(pts);
  const auto cached = probe->gram_from_pairwise(stats);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i; j < pts.size(); ++j) {
      EXPECT_EQ(cached(i, j), direct(i, j)) << i << "," << j;
    }
  }
}

TEST(IsotropicKernels, PairwiseCacheIsBitIdenticalToDirect) {
  common::Rng rng(17);
  std::vector<linalg::Vector> xs;
  for (int i = 0; i < 24; ++i) {
    xs.push_back({rng.uniform01(), rng.uniform01(), rng.uniform01()});
  }
  std::vector<std::unique_ptr<Kernel>> kernels;
  kernels.push_back(std::make_unique<SquaredExponentialKernel>(0.4, 1.3));
  kernels.push_back(std::make_unique<Matern52Kernel>(0.4, 1.3));
  for (const auto& k : kernels) {
    ASSERT_TRUE(k->supports_pairwise_cache());
    const auto stats = k->pairwise_stats(xs);
    EXPECT_EQ(stats.mismatch.rows(), 0u);
    // One statistic serves every hyper-parameter point of a refit search.
    for (const double l : {0.17, 0.4, 2.5}) {
      k->set_hyperparameters({std::log(l), std::log(0.6)});
      const auto cached = k->gram_from_pairwise(stats);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        for (std::size_t j = i; j < xs.size(); ++j) {
          EXPECT_EQ(cached(i, j), (*k)(xs[i], xs[j]))
              << k->name() << " l=" << l << " " << i << "," << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppat::gp
