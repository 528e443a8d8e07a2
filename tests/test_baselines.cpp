#include <gtest/gtest.h>

#include <set>

#include "baselines/aspdac20.hpp"
#include "baselines/dac19.hpp"
#include "baselines/mlcad19.hpp"
#include "baselines/tcad19.hpp"
#include "synthetic_benchmark.hpp"

namespace ppat::baselines {
namespace {

using tuner::BenchmarkCandidatePool;
using tuner::evaluate_result;
using tuner::kPowerDelay;
using tuner::SourceData;

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest()
      : source_(ppat::testing::synthetic_benchmark("src", 150, 21, 0.15)),
        target_(ppat::testing::synthetic_benchmark("tgt", 200, 22, 0.0)),
        source_data_(SourceData::from_benchmark(source_, kPowerDelay, 100,
                                                5)) {}

  flow::BenchmarkSet source_, target_;
  SourceData source_data_;
};

TEST_F(BaselinesTest, Tcad19FindsReasonableFront) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Tcad19Options opt;
  opt.seed = 1;
  opt.max_runs = 80;
  const auto result = run_tcad19(pool, opt);
  ASSERT_FALSE(result.pareto_indices.empty());
  EXPECT_LE(result.tool_runs, 80u);
  const auto q = evaluate_result(pool, result);
  EXPECT_LT(q.hv_error, 0.35);
}

TEST_F(BaselinesTest, Mlcad19RunsToBudget) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Mlcad19Options opt;
  opt.seed = 2;
  opt.budget = 60;
  const auto result = run_mlcad19(pool, opt);
  EXPECT_EQ(result.tool_runs, 60u);
  const auto q = evaluate_result(pool, result);
  EXPECT_LT(q.hv_error, 0.35);
  EXPECT_LT(q.adrs, 0.2);
}

TEST_F(BaselinesTest, Mlcad19AnswerIsNonDominatedSubsetOfRevealed) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Mlcad19Options opt;
  opt.seed = 3;
  opt.budget = 40;
  const auto result = run_mlcad19(pool, opt);
  for (std::size_t i : result.pareto_indices) {
    EXPECT_TRUE(pool.is_revealed(i));
  }
  // Non-dominated among themselves.
  for (std::size_t i : result.pareto_indices) {
    for (std::size_t j : result.pareto_indices) {
      if (i == j) continue;
      EXPECT_FALSE(pareto::dominates(pool.golden(j), pool.golden(i)));
    }
  }
}

TEST_F(BaselinesTest, Dac19UsesSourceAndImproves) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Dac19Options opt;
  opt.seed = 4;
  opt.budget = 60;
  const auto result = run_dac19(pool, &source_data_, opt);
  EXPECT_LE(result.tool_runs, 60u);
  const auto q = evaluate_result(pool, result);
  EXPECT_LT(q.hv_error, 0.35);
}

TEST_F(BaselinesTest, Dac19WorksWithoutSource) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Dac19Options opt;
  opt.seed = 5;
  opt.budget = 50;
  const auto result = run_dac19(pool, nullptr, opt);
  ASSERT_FALSE(result.pareto_indices.empty());
  EXPECT_LE(result.tool_runs, 50u);
}

TEST_F(BaselinesTest, Aspdac20RunsBothPhases) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Aspdac20Options opt;
  opt.seed = 6;
  opt.budget = 60;
  const auto result = run_aspdac20(pool, &source_data_, opt);
  EXPECT_LE(result.tool_runs, 60u);
  ASSERT_FALSE(result.pareto_indices.empty());
  const auto q = evaluate_result(pool, result);
  EXPECT_LT(q.hv_error, 0.35);
}

TEST_F(BaselinesTest, Aspdac20WorksWithoutSource) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Aspdac20Options opt;
  opt.seed = 7;
  opt.budget = 40;
  const auto result = run_aspdac20(pool, nullptr, opt);
  ASSERT_FALSE(result.pareto_indices.empty());
}

TEST_F(BaselinesTest, AllBaselinesDeterministicGivenSeed) {
  auto run_twice_and_compare = [this](auto&& runner) {
    BenchmarkCandidatePool pool_a(&target_, kPowerDelay);
    BenchmarkCandidatePool pool_b(&target_, kPowerDelay);
    const auto ra = runner(pool_a);
    const auto rb = runner(pool_b);
    EXPECT_EQ(ra.pareto_indices, rb.pareto_indices);
    EXPECT_EQ(ra.tool_runs, rb.tool_runs);
  };
  run_twice_and_compare([](BenchmarkCandidatePool& p) {
    Mlcad19Options o;
    o.seed = 8;
    o.budget = 30;
    return run_mlcad19(p, o);
  });
  run_twice_and_compare([this](BenchmarkCandidatePool& p) {
    Dac19Options o;
    o.seed = 8;
    o.budget = 30;
    return run_dac19(p, &source_data_, o);
  });
  run_twice_and_compare([this](BenchmarkCandidatePool& p) {
    Aspdac20Options o;
    o.seed = 8;
    o.budget = 30;
    return run_aspdac20(p, &source_data_, o);
  });
}

TEST_F(BaselinesTest, RefitEveryZeroThrows) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Tcad19Options tcad;
  tcad.refit_every = 0;
  EXPECT_THROW(run_tcad19(pool, tcad), std::invalid_argument);
  Mlcad19Options mlcad;
  mlcad.refit_every = 0;
  EXPECT_THROW(run_mlcad19(pool, mlcad), std::invalid_argument);
  EXPECT_EQ(pool.runs(), 0u);
}

TEST_F(BaselinesTest, ResultIndicesValid) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Aspdac20Options opt;
  opt.seed = 9;
  opt.budget = 35;
  const auto result = run_aspdac20(pool, &source_data_, opt);
  std::set<std::size_t> unique(result.pareto_indices.begin(),
                               result.pareto_indices.end());
  EXPECT_EQ(unique.size(), result.pareto_indices.size());
  for (std::size_t i : result.pareto_indices) EXPECT_LT(i, pool.size());
}

}  // namespace
}  // namespace ppat::baselines
