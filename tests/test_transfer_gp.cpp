#include "gp/transfer_gp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "direct_kernel.hpp"
#include "predict_one.hpp"

namespace ppat::gp {
namespace {

TransferGaussianProcess make_tgp(double lengthscale = 0.3) {
  return TransferGaussianProcess(
      std::make_unique<SquaredExponentialKernel>(lengthscale, 1.0));
}

/// Source function and a closely related target function.
double f_source(double x) { return std::sin(5.0 * x); }
double f_target(double x) { return std::sin(5.0 * x) + 0.1 * x; }

struct Task {
  std::vector<linalg::Vector> xs;
  linalg::Vector ys;
};

Task sample_task(double (*f)(double), std::size_t n, std::uint64_t seed,
                 double scale = 1.0, double offset = 0.0) {
  common::Rng rng(seed);
  Task t;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform01();
    t.xs.push_back({x});
    t.ys.push_back(offset + scale * f(x));
  }
  return t;
}

TEST(TransferGp, RhoClosedFormMatchesDefinition) {
  // rho = 2 (1/(1+a))^b - 1 must lie in (-1, 1) and hit known values.
  auto tgp = make_tgp();
  const auto src = sample_task(f_source, 10, 1);
  const auto tgt = sample_task(f_target, 5, 2);
  tgp.fit(src.xs, src.ys, tgt.xs, tgt.ys);
  const double rho = tgp.task_correlation();
  EXPECT_GT(rho, -1.0);
  EXPECT_LT(rho, 1.0);
}

TEST(TransferGp, CorrelatedSourceImprovesPrediction) {
  // 40 source points, only 4 target points: the transfer GP should predict
  // the target function far better than a target-only GP.
  const auto src = sample_task(f_source, 40, 11);
  const auto tgt = sample_task(f_target, 4, 12);

  auto tgp = make_tgp();
  tgp.fit(src.xs, src.ys, tgt.xs, tgt.ys);
  common::Rng rng(13);
  tgp.optimize_hyperparameters(rng);

  GaussianProcess plain(std::make_unique<SquaredExponentialKernel>(0.3, 1.0),
                        1e-4);
  plain.fit(tgt.xs, tgt.ys);
  common::Rng rng2(13);
  plain.optimize_hyperparameters(rng2);

  double err_transfer = 0.0, err_plain = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>(i) / 49.0;
    const double truth = f_target(x);
    err_transfer += std::fabs(testing::predict_one(tgp, {x}).mean - truth);
    err_plain += std::fabs(testing::predict_one(plain, {x}).mean - truth);
  }
  EXPECT_LT(err_transfer, err_plain);
  // And the learned correlation should be strongly positive.
  EXPECT_GT(tgp.task_correlation(), 0.3);
}

TEST(TransferGp, HandlesCrossTaskScaleMismatch) {
  // Target values are 100x the source scale with an offset (the paper's
  // Scenario Two: same shape, different design size). Per-task
  // standardization must absorb this.
  const auto src = sample_task(f_source, 40, 21);
  const auto tgt = sample_task(f_source, 6, 22, 100.0, 5000.0);

  auto tgp = make_tgp();
  tgp.fit(src.xs, src.ys, tgt.xs, tgt.ys);
  common::Rng rng(23);
  tgp.optimize_hyperparameters(rng);

  double err = 0.0;
  for (int i = 0; i < 25; ++i) {
    const double x = static_cast<double>(i) / 24.0;
    err += std::fabs(testing::predict_one(tgp, {x}).mean -
                     (5000.0 + 100.0 * f_source(x)));
  }
  // Mean absolute error well under the target's own std (~70).
  EXPECT_LT(err / 25.0, 40.0);
}

TEST(TransferGp, AntiCorrelatedTasksLearnNegativeRho) {
  auto neg = [](double x) { return -std::sin(5.0 * x); };
  common::Rng rng(31);
  Task src;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform01();
    src.xs.push_back({x});
    src.ys.push_back(neg(x));
  }
  const auto tgt = sample_task(f_source, 10, 32);
  auto tgp = make_tgp();
  tgp.fit(src.xs, src.ys, tgt.xs, tgt.ys);
  common::Rng rng2(33);
  tgp.optimize_hyperparameters(rng2);
  EXPECT_LT(tgp.task_correlation(), 0.0);
}

TEST(TransferGp, EmptySourceDegradesToPlainGp) {
  const auto tgt = sample_task(f_target, 10, 41);
  auto tgp = make_tgp();
  tgp.fit({}, {}, tgt.xs, tgt.ys);
  for (std::size_t i = 0; i < tgt.xs.size(); ++i) {
    EXPECT_NEAR(testing::predict_one(tgp, tgt.xs[i]).mean, tgt.ys[i], 0.15);
  }
}

TEST(TransferGp, AddTargetObservationRefines) {
  const auto src = sample_task(f_source, 20, 51);
  const auto tgt = sample_task(f_target, 3, 52);
  auto tgp = make_tgp();
  tgp.fit(src.xs, src.ys, tgt.xs, tgt.ys);
  const auto before = testing::predict_one(tgp, {0.5});
  tgp.add_observation({0.5}, f_target(0.5));
  const auto after = testing::predict_one(tgp, {0.5});
  EXPECT_LT(after.variance, before.variance + 1e-12);
  EXPECT_NEAR(after.mean, f_target(0.5), 0.1);
  EXPECT_EQ(tgp.num_target_points(), 4u);
}

TEST(TransferGp, PredictBatchMatchesSingle) {
  const auto src = sample_task(f_source, 15, 61);
  const auto tgt = sample_task(f_target, 5, 62);
  auto tgp = make_tgp();
  tgp.fit(src.xs, src.ys, tgt.xs, tgt.ys);
  const std::vector<linalg::Vector> queries = {{0.11}, {0.42}, {0.83}};
  linalg::Vector means, vars;
  tgp.predict_batch(queries, means, vars);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto p = testing::predict_one(tgp, queries[i]);
    EXPECT_NEAR(means[i], p.mean, 1e-10);
    EXPECT_NEAR(vars[i], p.variance, 1e-10);
  }
}

TEST(TransferGp, RequiresTargetData) {
  auto tgp = make_tgp();
  const auto src = sample_task(f_source, 5, 71);
  EXPECT_THROW(tgp.fit(src.xs, src.ys, {}, {}), std::invalid_argument);
  EXPECT_THROW(testing::predict_one(tgp, {0.5}), std::runtime_error);
}

TEST(TransferGp, JointLikelihoodFiniteAndImproves) {
  const auto src = sample_task(f_source, 20, 81);
  const auto tgt = sample_task(f_target, 8, 82);
  auto tgp = make_tgp(3.0);  // mis-specified start
  tgp.fit(src.xs, src.ys, tgt.xs, tgt.ys);
  const double before = tgp.log_marginal_likelihood();
  EXPECT_TRUE(std::isfinite(before));
  common::Rng rng(83);
  tgp.optimize_hyperparameters(rng);
  EXPECT_GE(tgp.log_marginal_likelihood(), before - 1e-9);
}

TEST(TransferGp, MixedKernelJointRefitCacheParityBitwise) {
  // Joint-likelihood refit with the mixed kernel through the pairwise-stats
  // cache vs the same kernel behind a cache-less wrapper (direct path):
  // fitted hyper-parameters and the task correlation must be bit-identical
  // (same RNG, same subsets).
  auto mixed = [] {
    return std::make_unique<MixedSpaceKernel>(std::vector<std::uint8_t>{0, 1});
  };
  common::Rng data(31);
  std::vector<linalg::Vector> sxs, txs;
  linalg::Vector sys, tys;
  for (int i = 0; i < 24; ++i) {
    linalg::Vector x(2);
    x[0] = data.uniform01();
    x[1] = (data.uniform01() < 0.5) ? 0.25 : 0.75;
    const double y = std::sin(5.0 * x[0]) + (x[1] < 0.5 ? 0.2 : -0.2);
    if (i < 16) {
      sxs.push_back(x);
      sys.push_back(y);
    } else {
      txs.push_back(x);
      tys.push_back(y + 0.1 * x[0]);
    }
  }
  TransferGaussianProcess a(mixed());
  ASSERT_TRUE(a.kernel().supports_pairwise_cache());
  a.fit(sxs, sys, txs, tys);
  {
    common::Rng rng(7);
    a.optimize_hyperparameters(rng);
  }
  TransferGaussianProcess b(
      std::make_unique<testing::DirectGramKernel>(mixed()));
  ASSERT_FALSE(b.kernel().supports_pairwise_cache());
  b.fit(sxs, sys, txs, tys);
  {
    common::Rng rng(7);
    b.optimize_hyperparameters(rng);
  }
  const auto ha = a.kernel().hyperparameters();
  const auto hb = b.kernel().hyperparameters();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i], hb[i]) << i;
  EXPECT_EQ(a.task_correlation(), b.task_correlation());
}

}  // namespace
}  // namespace ppat::gp
