// Failure injection and degenerate-input robustness across modules: the
// library must fail loudly (typed exceptions) on structurally bad input and
// behave sanely on pathological-but-legal input (constant objectives,
// duplicate configurations, single-candidate pools).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "flow/benchmark.hpp"
#include "gp/transfer_gp.hpp"
#include "predict_one.hpp"
#include "sta/optimizer.hpp"
#include "synthetic_benchmark.hpp"
#include "tuner/ppatuner.hpp"

namespace ppat {
namespace {

TEST(Robustness, BenchmarkCsvCorruptionDetected) {
  const auto dir = std::filesystem::temp_directory_path() / "ppat_robust";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "bad.csv").string();

  // Truncated header.
  {
    std::ofstream out(path);
    out << "p0,p1\n0.5,0.5\n";
  }
  EXPECT_THROW(flow::load_benchmark_csv(path, "bad",
                                        ppat::testing::synthetic_space()),
               std::runtime_error);

  // Right column count, wrong names.
  {
    std::ofstream out(path);
    out << "x0,x1,x2,area_um2,power_mw,delay_ns\n"
        << "0.5,0.5,0.5,1,2,3\n";
  }
  EXPECT_THROW(flow::load_benchmark_csv(path, "bad",
                                        ppat::testing::synthetic_space()),
               std::runtime_error);

  // Out-of-range parameter value.
  {
    std::ofstream out(path);
    out << "p0,p1,p2,area_um2,power_mw,delay_ns\n"
        << "7.0,0.5,0.5,1,2,3\n";
  }
  EXPECT_THROW(flow::load_benchmark_csv(path, "bad",
                                        ppat::testing::synthetic_space()),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(Robustness, GpSurvivesConstantTargets) {
  // Constant y: sd = 0 -> standardization must not divide by zero, and
  // predictions must return the constant.
  gp::GaussianProcess model(
      std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
  model.fit({{0.1}, {0.5}, {0.9}}, {5.0, 5.0, 5.0});
  const auto p = testing::predict_one(model, {0.3});
  EXPECT_NEAR(p.mean, 5.0, 1e-6);
  EXPECT_TRUE(std::isfinite(p.variance));
}

TEST(Robustness, TransferGpSurvivesConstantSource) {
  gp::TransferGaussianProcess model(
      std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0));
  model.fit({{0.2}, {0.8}}, {1.0, 1.0}, {{0.4}, {0.6}}, {2.0, 3.0});
  common::Rng rng(1);
  model.optimize_hyperparameters(rng);
  const auto p = testing::predict_one(model, {0.5});
  EXPECT_TRUE(std::isfinite(p.mean));
  EXPECT_TRUE(std::isfinite(p.variance));
}

TEST(Robustness, TunerHandlesConstantObjectivePool) {
  // Every candidate has identical QoR: the front is one point; the tuner
  // must terminate and return something valid.
  flow::BenchmarkSet bench;
  bench.name = "flat";
  bench.space = ppat::testing::synthetic_space();
  common::Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    linalg::Vector u = {rng.uniform01(), rng.uniform01(), rng.uniform01()};
    bench.configs.push_back(bench.space.decode(u));
    bench.qor.push_back({100.0, 10.0, 1.0});
  }
  tuner::BenchmarkCandidatePool pool(&bench, tuner::kPowerDelay);
  tuner::PPATunerOptions opt;
  opt.max_runs = 25;
  opt.seed = 4;
  const auto result =
      tuner::run_ppatuner(pool, tuner::make_plain_gp_factory(), opt);
  ASSERT_FALSE(result.pareto_indices.empty());
  // All candidates are equivalent: any non-empty answer is a perfect front.
  std::vector<pareto::Point> approx;
  for (std::size_t i : result.pareto_indices) approx.push_back(pool.golden(i));
  EXPECT_DOUBLE_EQ(pareto::adrs(pool.golden_front(), approx), 0.0);
}

TEST(Robustness, TunerHandlesDuplicateConfigurations) {
  // The pool contains many exact duplicates: kernel matrices become
  // singular without jitter; the run must still complete.
  flow::BenchmarkSet bench;
  bench.name = "dups";
  bench.space = ppat::testing::synthetic_space();
  common::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    linalg::Vector u = {0.25, 0.5, 0.75};  // identical configs
    bench.configs.push_back(bench.space.decode(u));
    bench.qor.push_back(ppat::testing::synthetic_qor(u));
  }
  for (int i = 0; i < 40; ++i) {
    linalg::Vector u = {rng.uniform01(), rng.uniform01(), rng.uniform01()};
    bench.configs.push_back(bench.space.decode(u));
    bench.qor.push_back(
        ppat::testing::synthetic_qor(bench.space.encode(bench.configs.back())));
  }
  tuner::BenchmarkCandidatePool pool(&bench, tuner::kPowerDelay);
  tuner::PPATunerOptions opt;
  opt.max_runs = 30;
  opt.seed = 6;
  const auto result =
      tuner::run_ppatuner(pool, tuner::make_plain_gp_factory(), opt);
  EXPECT_FALSE(result.pareto_indices.empty());
}

TEST(Robustness, TinyPoolTerminates) {
  const auto bench = ppat::testing::synthetic_benchmark("tiny", 3, 7);
  tuner::BenchmarkCandidatePool pool(&bench, tuner::kPowerDelay);
  tuner::PPATunerOptions opt;
  opt.min_init = 2;
  opt.max_runs = 3;
  opt.seed = 8;
  const auto result =
      tuner::run_ppatuner(pool, tuner::make_plain_gp_factory(), opt);
  EXPECT_FALSE(result.pareto_indices.empty());
  EXPECT_LE(result.tool_runs, 3u);
}

TEST(Robustness, HypervolumeDegenerateReference) {
  // Golden front collapsed onto the reference: zero hypervolume must be
  // reported as an error, not silently divided by.
  const std::vector<pareto::Point> golden = {{1.0, 1.0}};
  EXPECT_THROW(pareto::hypervolume_error(golden, golden, {1.0, 1.0}),
               std::invalid_argument);
}

TEST(Robustness, OptimizerOnSingleGateDesign) {
  const auto lib = netlist::CellLibrary::make_default();
  netlist::Netlist nl(&lib);
  const auto a = nl.add_primary_input();
  nl.add_instance(lib.find(netlist::CellFunction::kInv, 0), {a});
  std::vector<double> x = {0.0}, y = {0.0};
  std::vector<double> hpwl(nl.num_nets(), 1.0);
  sta::OptimizerOptions opt;
  const auto result = sta::optimize(nl, x, y, hpwl, sta::TimingOptions{}, opt);
  EXPECT_EQ(result.buffers_inserted, 0u);
  nl.validate();
}

}  // namespace
}  // namespace ppat
