#include "hls/systolic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "baselines/tcad19.hpp"
#include "sample/constrained.hpp"
#include "tuner/ppatuner.hpp"
#include "tuner/problem.hpp"
#include "tuner/surrogate.hpp"

namespace ppat::hls {
namespace {

TEST(SystolicSpace, MixedConditionalStructure) {
  const auto small = systolic_space(small_gemm());
  const auto large = systolic_space(large_gemm());
  EXPECT_TRUE(small.has_constraints());
  EXPECT_TRUE(large.has_constraints());
  // The transfer pair keeps parameter names/types aligned (equal encoded
  // dimension), mirroring the paper's Target1 -> Target2 setup.
  ASSERT_EQ(small.size(), large.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small.spec(i).name, large.spec(i).name);
    EXPECT_EQ(static_cast<int>(small.spec(i).type),
              static_cast<int>(large.spec(i).type));
  }
  // But over different domains (64 has 7 divisors, 256 has 9).
  EXPECT_LT(small.cardinality(0), large.cardinality(0));
}

TEST(SystolicOracle, DeterministicAndCountsRuns) {
  const auto w = small_gemm();
  const auto space = systolic_space(w);
  SystolicOracle a(w, 3), b(w, 3), other_seed(w, 4);
  const flow::Config c = space.decode(
      linalg::Vector(space.size(), 0.6));
  const flow::QoR qa = a.evaluate(space, c);
  const flow::QoR qb = b.evaluate(space, c);
  EXPECT_EQ(qa.area_um2, qb.area_um2);
  EXPECT_EQ(qa.power_mw, qb.power_mw);
  EXPECT_EQ(qa.delay_ns, qb.delay_ns);
  EXPECT_EQ(a.run_count(), 1u);
  // The jitter decorrelates seeds without changing resource counts.
  const flow::QoR qc = other_seed.evaluate(space, c);
  EXPECT_EQ(qc.area_um2, qa.area_um2);
  EXPECT_NE(qc.delay_ns, qa.delay_ns);
}

TEST(SystolicOracle, RejectsInfeasibleConfigs) {
  const auto w = small_gemm();
  const auto space = systolic_space(w);
  SystolicOracle oracle(w, 1);
  flow::Config c = space.decode(linalg::Vector(space.size(), 0.9));
  // Break divisibility: simd = 8 with lat_hide forced to a non-multiple.
  c[space.index_of("lat_hide")] = 1.0;
  c[space.index_of("simd")] = 8.0;
  EXPECT_THROW(oracle.evaluate(space, c), std::invalid_argument);
  EXPECT_EQ(oracle.run_count(), 0u);
}

TEST(SystolicOracle, CostModelTradeoffs) {
  const auto w = small_gemm();
  const auto space = systolic_space(w);
  SystolicOracle oracle(w, 1);
  auto config_with = [&](double pe, double simd, double lat) {
    flow::Config c(space.size());
    c[space.index_of("pe_rows")] = pe;
    c[space.index_of("pe_cols")] = pe;
    c[space.index_of("array_part")] = 0.0;
    c[space.index_of("l2_rows")] = 1.0;
    c[space.index_of("l2_cols")] = 1.0;
    c[space.index_of("lat_hide")] = lat;
    c[space.index_of("simd")] = simd;
    c[space.index_of("data_pack")] = 0.0;
    EXPECT_TRUE(space.is_feasible(c));
    return c;
  };
  // More PEs: more DSPs, less latency (within budget).
  const auto small_arr = oracle.cost(space, config_with(4.0, 1.0, 8.0));
  const auto big_arr = oracle.cost(space, config_with(8.0, 1.0, 8.0));
  EXPECT_GT(big_arr.dsp, small_arr.dsp);
  EXPECT_LT(big_arr.latency_us, small_arr.latency_us);
  // Latency hiding: covering the accumulation latency lowers II.
  const auto no_hide = oracle.cost(space, config_with(4.0, 1.0, 1.0));
  EXPECT_GT(no_hide.latency_us, small_arr.latency_us);
}

TEST(SystolicBenchmark, DeterministicFeasibleAndDistinct) {
  const auto w = small_gemm();
  const auto a = build_systolic_benchmark("hls_a", w, 100, 9);
  const auto b = build_systolic_benchmark("hls_b", w, 100, 9);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GE(a.size(), 80u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.configs[i], b.configs[i]);
    EXPECT_EQ(a.qor[i].delay_ns, b.qor[i].delay_ns);
    ASSERT_TRUE(a.space.is_feasible(a.configs[i]));
  }
}

// End-to-end: PPATuner and a baseline both drive the mixed-space pool
// through the standard plumbing and land near the golden front.
TEST(HlsEndToEnd, PPATunerAndBaselineRun) {
  const auto bench = build_systolic_benchmark("hls_e2e", small_gemm(), 250, 21);
  {
    tuner::BenchmarkCandidatePool pool(&bench, tuner::kAreaPowerDelay);
    tuner::PPATunerOptions opt;
    opt.max_runs = 60;
    opt.batch_size = 5;
    opt.seed = 5;
    const auto result = tuner::run_ppatuner(
        pool, tuner::default_gp_factory_for(bench.space), opt);
    ASSERT_FALSE(result.pareto_indices.empty());
    const auto quality = tuner::evaluate_result(pool, result);
    EXPECT_LT(quality.adrs, 0.5);
    EXPECT_LE(result.tool_runs, 60u);
  }
  {
    tuner::BenchmarkCandidatePool pool(&bench, tuner::kAreaPowerDelay);
    baselines::Tcad19Options opt;
    opt.max_runs = 60;
    opt.seed = 5;
    const auto result = baselines::run_tcad19(pool, opt);
    ASSERT_FALSE(result.pareto_indices.empty());
    const auto quality = tuner::evaluate_result(pool, result);
    EXPECT_LT(quality.adrs, 1.0);
  }
}

// The transfer scenario: small-array source data must help on the large
// array (mean ADRS over seeds strictly better than the no-transfer GP at
// the same run budget). This is the tier-1 gate for acceptance criterion 4;
// EXPERIMENTS.md tabulates the same sweep at more budgets.
TEST(HlsTransfer, SmallToLargeBeatsNoTransferOnAdrs) {
  const auto source_bench =
      build_systolic_benchmark("hls_src", small_gemm(), 300, 33);
  const auto target_bench =
      build_systolic_benchmark("hls_tgt", large_gemm(), 250, 34);
  const auto source = tuner::SourceData::from_benchmark(
      source_bench, tuner::kAreaPowerDelay, 200, 7);

  double transfer_sum = 0.0;
  double plain_sum = 0.0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    tuner::PPATunerOptions opt;
    opt.max_runs = 40;
    opt.batch_size = 5;
    opt.seed = seed;
    {
      tuner::BenchmarkCandidatePool pool(&target_bench,
                                         tuner::kAreaPowerDelay);
      const auto result = tuner::run_ppatuner(
          pool,
          tuner::default_transfer_gp_factory_for(target_bench.space, source),
          opt);
      transfer_sum += tuner::evaluate_result(pool, result).adrs;
    }
    {
      tuner::BenchmarkCandidatePool pool(&target_bench,
                                         tuner::kAreaPowerDelay);
      const auto result = tuner::run_ppatuner(
          pool, tuner::default_gp_factory_for(target_bench.space), opt);
      plain_sum += tuner::evaluate_result(pool, result).adrs;
    }
  }
  EXPECT_LT(transfer_sum / 3.0, plain_sum / 3.0)
      << "transfer ADRS " << transfer_sum / 3.0 << " vs no-transfer "
      << plain_sum / 3.0;
}

}  // namespace
}  // namespace ppat::hls
