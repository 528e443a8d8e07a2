// End-to-end integration: real PD flow -> benchmark tables -> every tuning
// method -> paper metrics. Uses small MAC designs so the whole suite stays
// fast, but exercises the exact code path the paper-reproduction benches
// run.
#include <gtest/gtest.h>

#include "baselines/aspdac20.hpp"
#include "baselines/dac19.hpp"
#include "baselines/mlcad19.hpp"
#include "baselines/tcad19.hpp"
#include "tuner/ppatuner.hpp"

namespace ppat {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new netlist::CellLibrary(netlist::CellLibrary::make_default());
    netlist::MacConfig src_cfg;
    src_cfg.operand_bits = 6;
    src_cfg.lanes = 3;
    netlist::MacConfig tgt_cfg;
    tgt_cfg.operand_bits = 10;
    tgt_cfg.lanes = 6;
    flow::PDTool src_tool(lib_, src_cfg, 42);
    flow::PDTool tgt_tool(lib_, tgt_cfg, 43);
    source_ = new flow::BenchmarkSet(flow::build_benchmark(
        "int_src", flow::source2_space(), 150, src_tool, 201));
    target_ = new flow::BenchmarkSet(flow::build_benchmark(
        "int_tgt", flow::target2_space(), 200, tgt_tool, 202));
  }
  static void TearDownTestSuite() {
    delete source_;
    delete target_;
    delete lib_;
    source_ = nullptr;
    target_ = nullptr;
    lib_ = nullptr;
  }

  static netlist::CellLibrary* lib_;
  static flow::BenchmarkSet* source_;
  static flow::BenchmarkSet* target_;
};

netlist::CellLibrary* IntegrationTest::lib_ = nullptr;
flow::BenchmarkSet* IntegrationTest::source_ = nullptr;
flow::BenchmarkSet* IntegrationTest::target_ = nullptr;

TEST_F(IntegrationTest, BenchmarkTablesAreSane) {
  ASSERT_EQ(source_->size(), 150u);
  ASSERT_EQ(target_->size(), 200u);
  for (const auto& q : target_->qor) {
    EXPECT_GT(q.area_um2, 0.0);
    EXPECT_GT(q.power_mw, 0.0);
    EXPECT_GT(q.delay_ns, 0.0);
  }
  // The golden front must contain more than one trade-off point in the
  // power-delay plane for the tuning problem to be meaningful.
  tuner::BenchmarkCandidatePool pool(target_, tuner::kPowerDelay);
  EXPECT_GE(pool.golden_front().size(), 3u);
}

TEST_F(IntegrationTest, PpatunerBeatsRandomSubset) {
  tuner::BenchmarkCandidatePool pool(target_, tuner::kPowerDelay);
  const auto source_data =
      tuner::SourceData::from_benchmark(*source_, tuner::kPowerDelay, 100, 7);
  tuner::PPATunerOptions opt;
  opt.seed = 3;
  opt.max_runs = 60;
  const auto result = tuner::run_ppatuner(
      pool, tuner::make_transfer_gp_factory(source_data), opt);
  const auto q = tuner::evaluate_result(pool, result);

  // Reference: the front of a random subset of the same size as the number
  // of tool runs the tuner used.
  common::Rng rng(99);
  tuner::BenchmarkCandidatePool rand_pool(target_, tuner::kPowerDelay);
  std::vector<std::size_t> rand_idx =
      rng.sample_without_replacement(rand_pool.size(), result.tool_runs);
  std::vector<pareto::Point> rand_pts;
  for (const auto& outcome : rand_pool.reveal_batch(rand_idx)) {
    rand_pts.push_back(outcome.value);
  }
  tuner::TuningResult rand_result;
  for (std::size_t f : pareto::pareto_front_indices(rand_pts)) {
    rand_result.pareto_indices.push_back(rand_idx[f]);
  }
  rand_result.tool_runs = result.tool_runs;
  const auto q_rand = tuner::evaluate_result(rand_pool, rand_result);

  EXPECT_LT(q.hv_error, q_rand.hv_error + 0.05);
  EXPECT_LT(q.hv_error, 0.4);
}

TEST_F(IntegrationTest, AllMethodsProduceValidResultsOnRealFlow) {
  const auto source_data =
      tuner::SourceData::from_benchmark(*source_, tuner::kPowerDelay, 100, 7);
  struct Row {
    const char* name;
    tuner::ResultQuality quality;
  };
  std::vector<Row> rows;

  {
    tuner::BenchmarkCandidatePool pool(target_, tuner::kPowerDelay);
    tuner::PPATunerOptions o;
    o.seed = 1;
    o.max_runs = 50;
    rows.push_back({"ppatuner",
                    evaluate_result(pool,
                                    run_ppatuner(pool,
                                                 tuner::make_transfer_gp_factory(
                                                     source_data),
                                                 o))});
  }
  {
    tuner::BenchmarkCandidatePool pool(target_, tuner::kPowerDelay);
    baselines::Tcad19Options o;
    o.seed = 1;
    o.max_runs = 60;
    rows.push_back({"tcad19", evaluate_result(pool, run_tcad19(pool, o))});
  }
  {
    tuner::BenchmarkCandidatePool pool(target_, tuner::kPowerDelay);
    baselines::Mlcad19Options o;
    o.seed = 1;
    o.budget = 50;
    rows.push_back({"mlcad19", evaluate_result(pool, run_mlcad19(pool, o))});
  }
  {
    tuner::BenchmarkCandidatePool pool(target_, tuner::kPowerDelay);
    baselines::Dac19Options o;
    o.seed = 1;
    o.budget = 60;
    rows.push_back(
        {"dac19", evaluate_result(pool, run_dac19(pool, &source_data, o))});
  }
  {
    tuner::BenchmarkCandidatePool pool(target_, tuner::kPowerDelay);
    baselines::Aspdac20Options o;
    o.seed = 1;
    o.budget = 50;
    rows.push_back({"aspdac20",
                    evaluate_result(pool, run_aspdac20(pool, &source_data,
                                                       o))});
  }

  for (const auto& row : rows) {
    EXPECT_GE(row.quality.hv_error, 0.0) << row.name;
    EXPECT_LT(row.quality.hv_error, 0.9) << row.name;
    EXPECT_GE(row.quality.adrs, 0.0) << row.name;
    EXPECT_GT(row.quality.runs, 0u) << row.name;
  }
}

}  // namespace
}  // namespace ppat
