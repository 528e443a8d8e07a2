// Surrogate maintenance scaling.
//
// Times the production add_observation (rank-1 factor append) and
// optimize_hyperparameters (distance-cached NLL) paths of both GP classes at
// n in {64..512} source points (transfer rows add n/4 target points). The
// rows have no comparison arm, so their ops_per_sec_legacy and speedup are
// null (the columns stay for schema continuity with older records).
//
// All timed loops are wall-clock budgeted (run until kMinSeconds, at least
// min_iters, at most max_iters) instead of a fixed repetition count, so
// cheap phases accumulate enough iterations to be stable and expensive
// phases don't repeat a minute-long refit for no extra information.
//
// Emits BENCH_surrogate.json (machine-readable, ops/sec per phase) in the
// working directory and a summary table on stdout.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
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
  double ops_per_sec = 0.0;
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

PhaseResult bench_plain_append(std::size_t n) {
  common::Rng rng(100 + n);
  const auto train = draw_points(n, rng);
  const auto extra = draw_points(kAppends, rng);
  const auto train_y = responses(train);
  PhaseResult r{"plain", "add_observation", n};
  std::unique_ptr<gp::GaussianProcess> model;
  r.ops_per_sec = time_budgeted(
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
  r.ops_per_sec = time_budgeted(
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
  r.ops_per_sec = time_budgeted(
      [&] {
        model = std::make_unique<gp::TransferGaussianProcess>(
            make_transfer(src, src_y, tgt, tgt_y));
      },
      [&] {
        for (const auto& x : extra) {
          model->add_observation(x, response(x));
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
  r.ops_per_sec = time_budgeted(
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
                 "\"ops_per_sec_new\": %s, \"ops_per_sec_legacy\": null, "
                 "\"speedup\": null}%s\n",
                 r.model.c_str(), r.phase.c_str(), r.n,
                 bench::json_double(r.ops_per_sec, 6).c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  std::vector<PhaseResult> results;
  for (std::size_t n : {64u, 128u, 256u, 512u}) {
    results.push_back(bench_plain_append(n));
    results.push_back(bench_plain_refit(n));
    results.push_back(bench_transfer_append(n));
    results.push_back(bench_transfer_refit(n));
    std::fprintf(stderr, "n=%zu done\n", n);
  }

  write_json(results, "BENCH_surrogate.json");

  std::printf("threads: %zu\n", common::global_thread_count());
  std::printf("%-9s %-25s %6s %14s\n", "model", "phase", "n", "ops/s");
  for (const auto& r : results) {
    std::printf("%-9s %-25s %6zu %14.3f\n", r.model.c_str(), r.phase.c_str(),
                r.n, r.ops_per_sec);
  }
  return 0;
}
