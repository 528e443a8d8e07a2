#include "gp/gp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "direct_kernel.hpp"
#include "predict_one.hpp"

namespace ppat::gp {
namespace {

GaussianProcess make_gp(double lengthscale = 0.3, double noise = 1e-6) {
  return GaussianProcess(
      std::make_unique<SquaredExponentialKernel>(lengthscale, 1.0), noise);
}

std::vector<linalg::Vector> grid_1d(std::size_t n) {
  std::vector<linalg::Vector> xs;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back({static_cast<double>(i) / static_cast<double>(n - 1)});
  }
  return xs;
}

TEST(GaussianProcess, InterpolatesNoiselessData) {
  auto gp = make_gp();
  const auto xs = grid_1d(8);
  linalg::Vector ys;
  for (const auto& x : xs) ys.push_back(std::sin(6.0 * x[0]));
  gp.fit(xs, ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto p = testing::predict_one(gp, xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 1e-3);
    EXPECT_LT(p.variance, 1e-3);
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  auto gp = make_gp(0.2);
  gp.fit({{0.0}, {0.2}}, {1.0, 2.0});
  const auto near = testing::predict_one(gp, {0.1});
  const auto far = testing::predict_one(gp, {0.9});
  EXPECT_LT(near.variance, far.variance);
}

TEST(GaussianProcess, PredictionBetweenPointsIsReasonable) {
  auto gp = make_gp(0.5);
  gp.fit({{0.0}, {1.0}}, {0.0, 10.0});
  const auto mid = testing::predict_one(gp, {0.5});
  EXPECT_GT(mid.mean, 2.0);
  EXPECT_LT(mid.mean, 8.0);
}

TEST(GaussianProcess, StandardizationHandlesLargeScales) {
  // Same shape, QoR-like magnitudes (areas in 1e5 um^2).
  auto gp = make_gp();
  const auto xs = grid_1d(6);
  linalg::Vector ys;
  for (const auto& x : xs) ys.push_back(3.0e5 + 2.0e4 * std::sin(4.0 * x[0]));
  gp.fit(xs, ys);
  const auto p = testing::predict_one(gp, xs[2]);
  EXPECT_NEAR(p.mean, ys[2], 1e3);
}

TEST(GaussianProcess, AddObservationRefinesPrediction) {
  auto gp = make_gp(0.3);
  gp.fit({{0.0}, {1.0}}, {0.0, 0.0});
  const auto before = testing::predict_one(gp, {0.5});
  gp.add_observation({0.5}, 5.0);
  const auto after = testing::predict_one(gp, {0.5});
  EXPECT_NEAR(after.mean, 5.0, 0.5);
  EXPECT_LT(after.variance, before.variance);
  EXPECT_EQ(gp.num_points(), 3u);
}

TEST(GaussianProcess, PredictBatchMatchesSingle) {
  auto gp = make_gp();
  const auto xs = grid_1d(7);
  linalg::Vector ys;
  for (const auto& x : xs) ys.push_back(x[0] * x[0]);
  gp.fit(xs, ys);
  const std::vector<linalg::Vector> queries = {{0.05}, {0.33}, {0.77}};
  linalg::Vector means, vars;
  gp.predict_batch(queries, means, vars);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto p = testing::predict_one(gp, queries[i]);
    EXPECT_NEAR(means[i], p.mean, 1e-10);
    EXPECT_NEAR(vars[i], p.variance, 1e-10);
  }
}

TEST(GaussianProcess, HyperparameterFitImprovesLikelihood) {
  common::Rng rng(5);
  // Data from a known smooth function, deliberately mis-specified initial
  // lengthscale.
  auto gp = make_gp(5.0, 1e-2);
  std::vector<linalg::Vector> xs;
  linalg::Vector ys;
  for (int i = 0; i < 25; ++i) {
    const double x = rng.uniform01();
    xs.push_back({x});
    ys.push_back(std::sin(8.0 * x));
  }
  gp.fit(xs, ys);
  const double before = gp.log_marginal_likelihood();
  gp.optimize_hyperparameters(rng);
  const double after = gp.log_marginal_likelihood();
  EXPECT_GE(after, before - 1e-9);
}

TEST(GaussianProcess, MixedKernelRefitCacheParityBitwise) {
  // The mixed kernel rides the pairwise-stats cache on the refit hot path;
  // the same kernel behind a wrapper without the cache takes the direct-Gram
  // path, and both must produce bit-identical fitted hyper-parameters (same
  // RNG seed, same subset, same winner scan).
  auto mixed = [] {
    return std::make_unique<MixedSpaceKernel>(
        std::vector<std::uint8_t>{0, 1, 0});
  };
  common::Rng data(17);
  std::vector<linalg::Vector> xs;
  linalg::Vector ys;
  for (int i = 0; i < 40; ++i) {
    linalg::Vector x(3);
    x[0] = data.uniform01();
    x[1] = (data.uniform01() < 0.5) ? 0.25 : 0.75;
    x[2] = data.uniform01();
    xs.push_back(x);
    ys.push_back(std::sin(4.0 * x[0]) + (x[1] < 0.5 ? 0.3 : -0.3) +
                 0.2 * x[2]);
  }
  GaussianProcess a(mixed(), 1e-4);
  ASSERT_TRUE(a.kernel().supports_pairwise_cache());
  a.fit(xs, ys);
  {
    common::Rng rng(9);
    a.optimize_hyperparameters(rng);
  }
  GaussianProcess b(std::make_unique<testing::DirectGramKernel>(mixed()),
                    1e-4);
  ASSERT_FALSE(b.kernel().supports_pairwise_cache());
  b.fit(xs, ys);
  {
    common::Rng rng(9);
    b.optimize_hyperparameters(rng);
  }
  const auto ha = a.kernel().hyperparameters();
  const auto hb = b.kernel().hyperparameters();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i], hb[i]) << i;
  EXPECT_EQ(a.noise_variance(), b.noise_variance());
}

TEST(GaussianProcess, FitRejectsBadInput) {
  auto gp = make_gp();
  EXPECT_THROW(gp.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(gp.fit({{0.0}}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(testing::predict_one(gp, {0.0}), std::runtime_error);
}

TEST(GaussianProcess, ConstructorValidates) {
  EXPECT_THROW(GaussianProcess(nullptr), std::invalid_argument);
  EXPECT_THROW(
      GaussianProcess(std::make_unique<SquaredExponentialKernel>(), 0.0),
      std::invalid_argument);
}

TEST(GaussianProcess, DuplicateInputsHandledByJitter) {
  auto gp = make_gp(0.3, 1e-8);
  // Exactly coincident inputs make the kernel matrix singular; jitter must
  // rescue the factorization.
  gp.fit({{0.5}, {0.5}, {0.5}}, {1.0, 1.0, 1.0});
  const auto p = testing::predict_one(gp, {0.5});
  EXPECT_NEAR(p.mean, 1.0, 1e-2);
}

}  // namespace
}  // namespace ppat::gp
