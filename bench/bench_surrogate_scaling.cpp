// Surrogate maintenance scaling.
//
// Phase 1 (exact tier, n in {64..512}): times the production
// add_observation (rank-1 factor append) and optimize_hyperparameters
// (distance-cached NLL) paths. These rows have no comparison arm, so their
// ops_per_sec_legacy and speedup are null.
//
// Phase 2 (exact vs low-rank, n in {2048..65536}): times full
// hyper-parameter refits on the scalable DTC tier (gp/sparse.hpp, m = 256
// inducing points) against the exact tier where the exact tier is still
// reachable (n = 2048; beyond that a single exact refit is the minutes-long
// wall this tier exists to avoid). Also times warm-started second refits
// and serial-vs-parallel multi-restart search.
//
// All timed loops are wall-clock budgeted (run until kMinSeconds, at least
// min_iters, at most max_iters) instead of a fixed repetition count, so
// cheap phases accumulate enough iterations to be stable and expensive
// phases don't repeat a minute-long refit for no extra information.
//
// Emits BENCH_surrogate.json (machine-readable, ops/sec per phase) in the
// working directory and a summary table on stdout.
//
// --smoke-lowrank: CI regression gate. Runs one approximate-tier refit at
// n = 4096 and exits nonzero if the tier failed to activate or throughput
// fell below the floor.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "gp/transfer_gp.hpp"

namespace {

using namespace ppat;

constexpr std::size_t kDims = 12;    // target benchmark dimensionality
constexpr std::size_t kAppends = 8;  // observations timed per append iter
constexpr double kMinSeconds = 1.0;  // wall-clock budget per timed loop

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Runs `op` (after an untimed `setup` per iteration) until the timed total
/// reaches kMinSeconds, with iteration floor/ceiling. Returns ops/sec where
/// one `op` call counts `ops_per_iter` operations.
double time_budgeted(const std::function<void()>& setup,
                     const std::function<void()>& op, int min_iters,
                     int max_iters, double ops_per_iter = 1.0) {
  double total = 0.0;
  int iters = 0;
  while (iters < min_iters || (total < kMinSeconds && iters < max_iters)) {
    setup();
    const double t0 = now_seconds();
    op();
    total += now_seconds() - t0;
    ++iters;
  }
  return static_cast<double>(iters) * ops_per_iter / total;
}

/// Smooth synthetic response over the unit cube (same character as the
/// encoded pdsim QoR surfaces: low-frequency, anisotropic, deterministic).
double response(const linalg::Vector& x) {
  double y = 0.0;
  for (std::size_t d = 0; d < x.size(); ++d) {
    y += std::sin(2.0 * x[d] + static_cast<double>(d)) *
         (1.0 + 0.3 * static_cast<double>(d % 3));
  }
  return y;
}

std::vector<linalg::Vector> draw_points(std::size_t n, common::Rng& rng) {
  std::vector<linalg::Vector> xs(n, linalg::Vector(kDims));
  for (auto& x : xs) {
    for (double& v : x) v = rng.uniform01();
  }
  return xs;
}

linalg::Vector responses(const std::vector<linalg::Vector>& xs) {
  linalg::Vector ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = response(xs[i]);
  return ys;
}

struct PhaseResult {
  std::string model;  // "plain" | "transfer"
  std::string phase;
  std::size_t n = 0;  // training-set size the phase ran at
  double ops_per_sec_new = 0.0;
  /// Comparison arm (phase 2 only); NaN when there is none.
  double ops_per_sec_legacy = std::numeric_limits<double>::quiet_NaN();
  double speedup() const { return ops_per_sec_new / ops_per_sec_legacy; }
};

gp::GaussianProcess make_plain(const std::vector<linalg::Vector>& xs,
                               const linalg::Vector& ys) {
  gp::GaussianProcess model(
      std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
  model.fit(xs, ys);
  return model;
}

gp::TransferGaussianProcess make_transfer(
    const std::vector<linalg::Vector>& src_xs, const linalg::Vector& src_ys,
    const std::vector<linalg::Vector>& tgt_xs, const linalg::Vector& tgt_ys) {
  gp::TransferGaussianProcess model(
      std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0));
  model.fit(src_xs, src_ys, tgt_xs, tgt_ys);
  return model;
}

// ---------------------------------------------------------------------------
// Phase 1: production append and refit (exact tier)

PhaseResult bench_plain_append(std::size_t n) {
  common::Rng rng(100 + n);
  const auto train = draw_points(n, rng);
  const auto extra = draw_points(kAppends, rng);
  const auto train_y = responses(train);
  PhaseResult r{"plain", "add_observation", n};
  std::unique_ptr<gp::GaussianProcess> model;
  r.ops_per_sec_new = time_budgeted(
      [&] {
        model =
            std::make_unique<gp::GaussianProcess>(make_plain(train, train_y));
      },
      [&] {
        for (const auto& x : extra) model->add_observation(x, response(x));
      },
      /*min_iters=*/2, /*max_iters=*/50, kAppends);
  return r;
}

PhaseResult bench_plain_refit(std::size_t n) {
  common::Rng data_rng(200 + n);
  const auto train = draw_points(n, data_rng);
  const auto train_y = responses(train);
  gp::FitOptions opt;
  opt.max_points = n;  // time the full n, not the default subsample cap
  PhaseResult r{"plain", "optimize_hyperparameters", n};
  std::unique_ptr<gp::GaussianProcess> model;
  r.ops_per_sec_new = time_budgeted(
      [&] {
        // Fresh model per iter so every timed refit starts from the same
        // hyperparameters and walks the same search trajectory.
        model =
            std::make_unique<gp::GaussianProcess>(make_plain(train, train_y));
      },
      [&] {
        common::Rng rng(7);  // same plan every iter
        model->optimize_hyperparameters(rng, opt);
      },
      /*min_iters=*/1, /*max_iters=*/20);
  return r;
}

PhaseResult bench_transfer_append(std::size_t n) {
  // n source points plus n/4 target points: the joint system a mid-tuning
  // transfer surrogate maintains.
  common::Rng rng(300 + n);
  const auto src = draw_points(n, rng);
  const auto tgt = draw_points(n / 4, rng);
  const auto extra = draw_points(kAppends, rng);
  const auto src_y = responses(src);
  const auto tgt_y = responses(tgt);
  PhaseResult r{"transfer", "add_observation", n + n / 4};
  std::unique_ptr<gp::TransferGaussianProcess> model;
  r.ops_per_sec_new = time_budgeted(
      [&] {
        model = std::make_unique<gp::TransferGaussianProcess>(
            make_transfer(src, src_y, tgt, tgt_y));
      },
      [&] {
        for (const auto& x : extra) {
          model->add_target_observation(x, response(x));
        }
      },
      /*min_iters=*/2, /*max_iters=*/50, kAppends);
  return r;
}

PhaseResult bench_transfer_refit(std::size_t n) {
  common::Rng data_rng(400 + n);
  const auto src = draw_points(n, data_rng);
  const auto tgt = draw_points(n / 4, data_rng);
  const auto src_y = responses(src);
  const auto tgt_y = responses(tgt);
  gp::TransferFitOptions opt;
  opt.max_source_points = n;
  opt.max_target_points = n;
  PhaseResult r{"transfer", "optimize_hyperparameters", n + n / 4};
  std::unique_ptr<gp::TransferGaussianProcess> model;
  r.ops_per_sec_new = time_budgeted(
      [&] {
        model = std::make_unique<gp::TransferGaussianProcess>(
            make_transfer(src, src_y, tgt, tgt_y));
      },
      [&] {
        common::Rng rng(7);
        model->optimize_hyperparameters(rng, opt);
      },
      /*min_iters=*/1, /*max_iters=*/20);
  return r;
}

// ---------------------------------------------------------------------------
// Phase 2: exact vs low-rank tier at large n

gp::FitOptions large_refit_options(std::size_t n) {
  gp::FitOptions opt;
  opt.max_points = std::min<std::size_t>(n, 2048);  // same subset both tiers
  opt.restarts = 1;
  opt.max_evals = 30;
  return opt;
}

gp::LowRankOptions lowrank_options() {
  gp::LowRankOptions lr;
  lr.enabled = true;
  lr.switchover = 1024;
  lr.num_inducing = 256;
  return lr;
}

/// Refits/sec at n points on the chosen tier. Models are constructed and
/// fitted untimed; each timed op is one full optimize_hyperparameters
/// (search on the capped subset + posterior rebuild on all n points).
double bench_large_refit_tier(std::size_t n,
                              const std::vector<linalg::Vector>& train,
                              const linalg::Vector& train_y, bool lowrank) {
  const auto opt = large_refit_options(n);
  std::unique_ptr<gp::GaussianProcess> model;
  return time_budgeted(
      [&] {
        model = std::make_unique<gp::GaussianProcess>(
            std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
        if (lowrank) model->set_low_rank(lowrank_options());
        model->fit(train, train_y);
      },
      [&] {
        common::Rng rng(7);
        model->optimize_hyperparameters(rng, opt);
      },
      /*min_iters=*/1, /*max_iters=*/10);
}

PhaseResult bench_lowrank_refit(std::size_t n, std::size_t exact_ceiling) {
  common::Rng data_rng(500 + n);
  const auto train = draw_points(n, data_rng);
  const auto train_y = responses(train);
  PhaseResult r{"plain", "lowrank_refit", n};
  r.ops_per_sec_new = bench_large_refit_tier(n, train, train_y, true);
  if (n <= exact_ceiling) {
    r.ops_per_sec_legacy = bench_large_refit_tier(n, train, train_y, false);
  }
  return r;
}

/// Warm-started second refit vs cold second refit, low-rank tier, same data.
/// The warm path seeds the search at the previous optimum and stops on a
/// collapsed simplex (nm_f_tolerance), so this measures the steady-state
/// refit cost a long tuning run actually pays.
PhaseResult bench_warm_refit(std::size_t n) {
  common::Rng data_rng(600 + n);
  const auto train = draw_points(n, data_rng);
  const auto train_y = responses(train);
  PhaseResult r{"plain", "warm_refit", n};
  for (bool warm : {true, false}) {
    auto opt = large_refit_options(n);
    // A production refit budget: the cold arm spends all of it, the warm arm
    // (seeded at the previous optimum, early-stopping on a collapsed
    // simplex) should bail out after a handful of evaluations.
    opt.max_evals = 60;
    opt.warm_start = warm;
    if (warm) opt.nm_f_tolerance = 1e-4;
    std::unique_ptr<gp::GaussianProcess> model;
    const double ops = time_budgeted(
        [&] {
          model = std::make_unique<gp::GaussianProcess>(
              std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
          model->set_low_rank(lowrank_options());
          model->fit(train, train_y);
          common::Rng rng(7);  // untimed first refit primes the warm state
          model->optimize_hyperparameters(rng, opt);
        },
        [&] {
          common::Rng rng(8);
          model->optimize_hyperparameters(rng, opt);
        },
        /*min_iters=*/1, /*max_iters=*/10);
    (warm ? r.ops_per_sec_new : r.ops_per_sec_legacy) = ops;
  }
  return r;
}

/// Shipped multi-restart config vs forced-serial on the exact tier. Below
/// FitOptions::parallel_restart_min_points the shipped path is itself
/// serial (the fork/join overhead measured slower than the restart work at
/// n = 384), so small n must read ~1.0x — the old sub-1.0x regression is
/// the thing this gate removed. On a single-core runner the large-n ratio
/// is also ~1 by construction; the "threads" field in the JSON records what
/// the measurement actually had to work with.
PhaseResult bench_multistart(std::size_t n) {
  common::Rng data_rng(700 + n);
  const auto train = draw_points(n, data_rng);
  const auto train_y = responses(train);
  gp::FitOptions opt;
  opt.max_points = n;
  opt.restarts = 8;
  opt.max_evals = 40;
  PhaseResult r{"plain", "multistart_refit", n};
  for (bool parallel : {true, false}) {
    opt.parallel_restarts = parallel;
    std::unique_ptr<gp::GaussianProcess> model;
    const double ops = time_budgeted(
        [&] {
          model = std::make_unique<gp::GaussianProcess>(
              make_plain(train, train_y));
        },
        [&] {
          common::Rng rng(7);
          model->optimize_hyperparameters(rng, opt);
        },
        /*min_iters=*/1, /*max_iters=*/20);
    (parallel ? r.ops_per_sec_new : r.ops_per_sec_legacy) = ops;
  }
  return r;
}

// ---------------------------------------------------------------------------

void write_json(const std::vector<PhaseResult>& results, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"dims\": %zu,\n  \"appends_per_sample\": %zu,\n",
               kDims, kAppends);
  std::fprintf(f, "  \"threads\": %zu,\n", common::global_thread_count());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"phase\": \"%s\", \"n\": %zu, "
                 "\"ops_per_sec_new\": %s, \"ops_per_sec_legacy\": %s, "
                 "\"speedup\": %s}%s\n",
                 r.model.c_str(), r.phase.c_str(), r.n,
                 bench::json_double(r.ops_per_sec_new, 6).c_str(),
                 bench::json_double(r.ops_per_sec_legacy, 6).c_str(),
                 bench::json_double(r.speedup(), 4).c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int smoke_lowrank() {
  // CI gate: the approximate tier must activate at n = 4096 and keep refits
  // under 25 s (0.04 refits/sec) — an order of magnitude of headroom over
  // the reference machine's ~0.4/sec, so only a real regression trips it.
  constexpr std::size_t n = 4096;
  constexpr double kMinOpsPerSec = 0.04;
  common::Rng data_rng(500 + n);
  const auto train = draw_points(n, data_rng);
  const auto train_y = responses(train);

  gp::GaussianProcess model(
      std::make_unique<gp::SquaredExponentialKernel>(0.3, 1.0), 1e-4);
  model.set_low_rank(lowrank_options());
  model.fit(train, train_y);
  if (!model.low_rank_active()) {
    std::fprintf(stderr, "FAIL: low-rank tier did not activate at n=%zu\n", n);
    return 1;
  }
  const double ops = bench_large_refit_tier(n, train, train_y, true);
  std::printf("smoke-lowrank: n=%zu refits/sec=%.4f (floor %.4f)\n", n, ops,
              kMinOpsPerSec);
  if (!(ops >= kMinOpsPerSec)) {
    std::fprintf(stderr, "FAIL: approximate refit below the ops/sec floor\n");
    return 1;
  }
  std::printf("smoke-lowrank: PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke-lowrank") == 0) {
    return smoke_lowrank();
  }

  std::vector<PhaseResult> results;
  for (std::size_t n : {64u, 128u, 256u, 512u}) {
    results.push_back(bench_plain_append(n));
    results.push_back(bench_plain_refit(n));
    results.push_back(bench_transfer_append(n));
    results.push_back(bench_transfer_refit(n));
    std::fprintf(stderr, "n=%zu done\n", n);
  }
  // Exact comparison stops at 2048: one exact refit there already takes on
  // the order of a minute; beyond, only the approximate tier is measured
  // (that cliff is the tier's reason to exist).
  for (std::size_t n : {2048u, 4096u, 16384u, 65536u}) {
    results.push_back(bench_lowrank_refit(n, /*exact_ceiling=*/2048));
    std::fprintf(stderr, "lowrank n=%zu done\n", n);
  }
  results.push_back(bench_warm_refit(2048));
  std::fprintf(stderr, "warm refit done\n");
  // One point under the serial-fallback threshold, one above it.
  results.push_back(bench_multistart(384));
  results.push_back(bench_multistart(768));
  std::fprintf(stderr, "multistart done\n");

  write_json(results, "BENCH_surrogate.json");

  std::printf("threads: %zu\n", common::global_thread_count());
  std::printf("%-9s %-25s %6s %14s %14s %9s\n", "model", "phase", "n",
              "new ops/s", "legacy ops/s", "speedup");
  for (const auto& r : results) {
    std::printf("%-9s %-25s %6zu %14.3f %14.3f %8.2fx\n", r.model.c_str(),
                r.phase.c_str(), r.n, r.ops_per_sec_new, r.ops_per_sec_legacy,
                r.speedup());
  }
  return 0;
}
