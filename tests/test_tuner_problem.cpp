#include "tuner/problem.hpp"

#include <gtest/gtest.h>

#include "synthetic_benchmark.hpp"

namespace ppat::tuner {
namespace {

TEST(ObjectiveSpaces, Names) {
  EXPECT_STREQ(objective_space_name(kAreaDelay), "Area-Delay");
  EXPECT_STREQ(objective_space_name(kPowerDelay), "Power-Delay");
  EXPECT_STREQ(objective_space_name(kAreaPowerDelay), "Area-Power-Delay");
  EXPECT_STREQ(objective_space_name({0}), "custom");
}

class PoolTest : public ::testing::Test {
 protected:
  PoolTest() : bench_(testing::synthetic_benchmark("t", 100, 1)) {}
  flow::BenchmarkSet bench_;
};

TEST_F(PoolTest, RevealCountsFirstTimeOnly) {
  BenchmarkCandidatePool pool(&bench_, kPowerDelay);
  EXPECT_EQ(pool.runs(), 0u);
  EXPECT_FALSE(pool.is_revealed(5));
  const auto y1 = pool.reveal_batch({5}).front().value;
  EXPECT_EQ(pool.runs(), 1u);
  EXPECT_TRUE(pool.is_revealed(5));
  const auto y2 = pool.reveal_batch({5}).front().value;
  EXPECT_EQ(pool.runs(), 1u);  // repeat is free
  EXPECT_EQ(y1, y2);
}

TEST_F(PoolTest, GoldenProjectsObjectives) {
  BenchmarkCandidatePool pool(&bench_, kPowerDelay);
  const auto p = pool.golden(7);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[0], bench_.qor[7].power_mw);
  EXPECT_DOUBLE_EQ(p[1], bench_.qor[7].delay_ns);

  BenchmarkCandidatePool pool3(&bench_, kAreaPowerDelay);
  EXPECT_EQ(pool3.golden(7).size(), 3u);
  EXPECT_EQ(pool3.num_objectives(), 3u);
}

TEST_F(PoolTest, GoldenFrontIsNonDominated) {
  BenchmarkCandidatePool pool(&bench_, kPowerDelay);
  const auto front = pool.golden_front();
  ASSERT_FALSE(front.empty());
  for (const auto& a : front) {
    for (const auto& b : front) {
      EXPECT_FALSE(pareto::dominates(a, b));
    }
  }
}

TEST_F(PoolTest, ConstructorValidates) {
  EXPECT_THROW(BenchmarkCandidatePool(nullptr, kPowerDelay), std::invalid_argument);
  EXPECT_THROW(BenchmarkCandidatePool(&bench_, {}), std::invalid_argument);
}

TEST_F(PoolTest, EvaluatePerfectResultScoresZero) {
  BenchmarkCandidatePool pool(&bench_, kPowerDelay);
  // The indices of the true front form a perfect answer.
  std::vector<pareto::Point> all;
  for (std::size_t i = 0; i < pool.size(); ++i) all.push_back(pool.golden(i));
  TuningResult result;
  result.pareto_indices = pareto::pareto_front_indices(all);
  result.tool_runs = 42;
  const auto q = evaluate_result(pool, result);
  EXPECT_NEAR(q.hv_error, 0.0, 1e-12);
  EXPECT_NEAR(q.adrs, 0.0, 1e-12);
  EXPECT_EQ(q.runs, 42u);
}

TEST_F(PoolTest, EvaluateWorseResultScoresPositive) {
  BenchmarkCandidatePool pool(&bench_, kPowerDelay);
  // Deliberately pick a dominated point as the whole answer.
  std::vector<pareto::Point> all;
  for (std::size_t i = 0; i < pool.size(); ++i) all.push_back(pool.golden(i));
  const auto front = pareto::pareto_front_indices(all);
  std::size_t dominated = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (std::find(front.begin(), front.end(), i) == front.end()) {
      dominated = i;
      break;
    }
  }
  TuningResult result;
  result.pareto_indices = {dominated};
  const auto q = evaluate_result(pool, result);
  EXPECT_GT(q.hv_error, 0.0);
  EXPECT_GT(q.adrs, 0.0);
}

TEST_F(PoolTest, EvaluateRejectsEmptyAnswer) {
  BenchmarkCandidatePool pool(&bench_, kPowerDelay);
  EXPECT_THROW(evaluate_result(pool, TuningResult{}), std::invalid_argument);
}

TEST(SourceDataTest, SubsamplesToCap) {
  const auto bench = testing::synthetic_benchmark("s", 300, 2);
  const auto data = SourceData::from_benchmark(bench, kAreaPowerDelay, 100, 7);
  EXPECT_EQ(data.size(), 100u);
  ASSERT_EQ(data.ys.size(), 3u);
  EXPECT_EQ(data.ys[0].size(), 100u);
  // Encoded configs live in the unit cube.
  for (const auto& x : data.xs) {
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(SourceDataTest, SmallSourceTakenWhole) {
  const auto bench = testing::synthetic_benchmark("s", 30, 3);
  const auto data = SourceData::from_benchmark(bench, kPowerDelay, 100, 7);
  EXPECT_EQ(data.size(), 30u);
  ASSERT_EQ(data.ys.size(), 2u);
  // Column order follows the objective list (power first).
  EXPECT_DOUBLE_EQ(data.ys[0][0], bench.qor[0].power_mw);
}

}  // namespace
}  // namespace ppat::tuner
