// Microbenchmarks: GP and transfer-GP fit/predict scaling (google-benchmark).
// The tuner's per-round cost is dominated by the Cholesky factorization
// (O(n^3)) and the batched candidate prediction (O(n^2) per candidate);
// these benches make that scaling visible.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "gp/posterior_cache.hpp"
#include "gp/transfer_gp.hpp"
#include "linalg/cholesky.hpp"

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

// SE Gram of n random 9-d points plus a small nugget: the SPD matrix shape
// every NLL probe factors.
linalg::Matrix make_gram(std::size_t n, std::uint64_t seed) {
  const auto data = make_data(n, 9, seed);
  gp::SquaredExponentialKernel kernel(0.5, 1.0);
  linalg::Matrix gram = kernel.gram(data.xs);
  gram.add_to_diagonal(1e-4);
  return gram;
}

// One dense factorization (the cost of one NLL probe of a refit).
void BM_CholeskyCompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix gram = make_gram(n, 11);
  for (auto _ : state) {
    auto f = linalg::CholeskyFactor::compute(gram);
    benchmark::DoNotOptimize(f->lower().row(n - 1).data());
  }
}
BENCHMARK(BM_CholeskyCompute)->Arg(200)->Arg(270)->Arg(400);

// Forward solve of 2000 right-hand sides at once (one predict over a pool).
void BM_SolveLowerMulti(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 2000;
  const auto f = linalg::CholeskyFactor::compute(make_gram(n, 12));
  common::Rng rng(13);
  linalg::Matrix b(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : b.row(i)) v = rng.normal();
  }
  for (auto _ : state) {
    const linalg::Matrix v = f->solve_lower_multi(b);
    benchmark::DoNotOptimize(v.row(n - 1).data());
  }
}
BENCHMARK(BM_SolveLowerMulti)->Arg(270)->Arg(400);

// Posterior cache after an epoch bump: every one of 2000 candidates is stale
// and is rebuilt against a 270-point GP.
void BM_PosteriorCacheRebuild(benchmark::State& state) {
  const auto train = make_data(270, 9, 14);
  const auto cands = make_data(2000, 9, 15);
  gp::GaussianProcess model(
      std::make_unique<gp::SquaredExponentialKernel>(0.5, 1.0), 1e-4);
  model.fit(train.xs, train.ys);
  std::vector<std::size_t> ids(cands.xs.size());
  std::iota(ids.begin(), ids.end(), 0);
  linalg::Vector means, vars;
  for (auto _ : state) {
    gp::PosteriorCache cache;
    cache.predict(model, ids, cands.xs, means, vars);
    benchmark::DoNotOptimize(vars.data());
  }
}
BENCHMARK(BM_PosteriorCacheRebuild);

}  // namespace

BENCHMARK_MAIN();
