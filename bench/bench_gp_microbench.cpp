// Microbenchmarks: GP and transfer-GP fit/predict scaling (google-benchmark).
// The tuner's per-round cost is dominated by the Cholesky factorization
// (O(n^3)) and the batched candidate prediction (O(n^2) per candidate);
// these benches make that scaling visible.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "gp/transfer_gp.hpp"

namespace {

using namespace ppat;

struct Data {
  std::vector<linalg::Vector> xs;
  linalg::Vector ys;
};

Data make_data(std::size_t n, std::size_t d, std::uint64_t seed) {
  common::Rng rng(seed);
  Data data;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector x(d);
    for (auto& v : x) v = rng.uniform01();
    double y = 0.0;
    for (double v : x) y += std::sin(3.0 * v);
    data.xs.push_back(std::move(x));
    data.ys.push_back(y);
  }
  return data;
}

void BM_GpFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = make_data(n, 9, 1);
  for (auto _ : state) {
    gp::GaussianProcess model(
        std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
    model.fit(data.xs, data.ys);
    benchmark::DoNotOptimize(model.log_marginal_likelihood());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_GpFit)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_GpPredictBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto data = make_data(n, 9, 2);
  const auto queries = make_data(m, 9, 3);
  gp::GaussianProcess model(
      std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
  model.fit(data.xs, data.ys);
  linalg::Vector means, vars;
  for (auto _ : state) {
    model.predict_batch(queries.xs, means, vars);
    benchmark::DoNotOptimize(means.data());
  }
}
BENCHMARK(BM_GpPredictBatch)
    ->Args({100, 1000})
    ->Args({200, 1000})
    ->Args({400, 1000})
    ->Args({400, 5000});

void BM_GpHyperparameterFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = make_data(n, 9, 4);
  for (auto _ : state) {
    gp::GaussianProcess model(
        std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
    model.fit(data.xs, data.ys);
    common::Rng rng(5);
    gp::FitOptions opt;
    opt.restarts = 1;
    opt.max_evals = 40;
    model.optimize_hyperparameters(rng, opt);
    benchmark::DoNotOptimize(model.noise_variance());
  }
}
BENCHMARK(BM_GpHyperparameterFit)->Arg(100)->Arg(200);

void BM_TransferGpFit(benchmark::State& state) {
  const auto n_src = static_cast<std::size_t>(state.range(0));
  const auto n_tgt = static_cast<std::size_t>(state.range(1));
  const auto src = make_data(n_src, 9, 6);
  const auto tgt = make_data(n_tgt, 9, 7);
  for (auto _ : state) {
    gp::TransferGaussianProcess model(
        std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0));
    model.fit(src.xs, src.ys, tgt.xs, tgt.ys);
    benchmark::DoNotOptimize(model.task_correlation());
  }
}
BENCHMARK(BM_TransferGpFit)->Args({200, 50})->Args({200, 200});

void BM_TransferGpAddObservation(benchmark::State& state) {
  const auto src = make_data(200, 9, 8);
  const auto tgt = make_data(100, 9, 9);
  common::Rng rng(10);
  for (auto _ : state) {
    state.PauseTiming();
    gp::TransferGaussianProcess model(
        std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0));
    model.fit(src.xs, src.ys, tgt.xs, tgt.ys);
    linalg::Vector x(9);
    for (auto& v : x) v = rng.uniform01();
    state.ResumeTiming();
    model.add_observation(x, 1.0);
    benchmark::DoNotOptimize(model.num_target_points());
  }
}
BENCHMARK(BM_TransferGpAddObservation);

}  // namespace

BENCHMARK_MAIN();
