#include "baselines/mlcad19.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/reveal_log.hpp"
#include "tuner/surrogate.hpp"

namespace ppat::baselines {

tuner::TuningResult run_mlcad19(tuner::CandidatePool& pool,
                                const Mlcad19Options& options) {
  if (options.refit_every == 0) {
    throw std::invalid_argument("run_mlcad19: refit_every must be > 0");
  }
  const std::size_t n = pool.size();
  const std::size_t n_obj = pool.num_objectives();
  common::Rng rng(options.seed);

  // ---- Initial design ----
  const std::size_t init_count = std::min(
      {n, std::max(options.min_init,
                   static_cast<std::size_t>(options.init_fraction *
                                            static_cast<double>(n))),
       options.budget});
  RevealLog log(pool);
  std::vector<linalg::Vector> train_x;
  std::vector<linalg::Vector> train_y(n_obj);
  auto reveal = [&](std::size_t i) {
    const auto y = log.reveal(i);
    if (y) {
      train_x.push_back(pool.encoded()[i]);
      for (std::size_t k = 0; k < n_obj; ++k) train_y[k].push_back((*y)[k]);
    }
    return y;
  };
  for (std::size_t i : rng.sample_without_replacement(n, init_count)) {
    reveal(i);
  }
  log.require_a_success("run_mlcad19");

  std::vector<tuner::PlainGpSurrogate> models(n_obj);
  for (std::size_t k = 0; k < n_obj; ++k) {
    models[k].fit(train_x, train_y[k]);
    models[k].refit_hyperparameters(rng);
  }

  // ---- BO loop ----
  std::vector<linalg::Vector> unrevealed_x;
  std::vector<std::size_t> unrevealed_idx;
  linalg::Vector means, vars;
  std::size_t round = 0;
  while (pool.runs() < options.budget) {
    ++round;
    unrevealed_x.clear();
    unrevealed_idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!log.spent(i)) {
        unrevealed_idx.push_back(i);
        unrevealed_x.push_back(pool.encoded()[i]);
      }
    }
    if (unrevealed_idx.empty()) break;

    // Per-objective normalized LCB scores.
    std::vector<linalg::Vector> lcb(n_obj,
                                    linalg::Vector(unrevealed_idx.size()));
    for (std::size_t k = 0; k < n_obj; ++k) {
      models[k].predict_batch(unrevealed_x, means, vars);
      double best = 1e300, worst = -1e300;
      for (std::size_t c = 0; c < means.size(); ++c) {
        const double v =
            means[c] - options.kappa * std::sqrt(std::max(0.0, vars[c]));
        lcb[k][c] = v;
        best = std::min(best, v);
        worst = std::max(worst, v);
      }
      const double span = std::max(1e-12, worst - best);
      for (double& v : lcb[k]) v = (v - best) / span;
    }

    // Batch of the best equal-weight LCB sums.
    const std::size_t batch = std::min(
        {options.batch_size, unrevealed_idx.size(),
         options.budget - pool.runs()});
    const double w = 1.0 / static_cast<double>(n_obj);
    std::vector<bool> taken(unrevealed_idx.size(), false);
    for (std::size_t b = 0; b < batch; ++b) {
      std::size_t best_c = 0;
      double best_score = 1e300;
      for (std::size_t c = 0; c < unrevealed_idx.size(); ++c) {
        if (taken[c]) continue;
        double score = 0.0;
        for (std::size_t k = 0; k < n_obj; ++k) score += w * lcb[k][c];
        if (score < best_score) {
          best_score = score;
          best_c = c;
        }
      }
      taken[best_c] = true;
      const std::size_t i = unrevealed_idx[best_c];
      if (const auto y = reveal(i)) {
        for (std::size_t k = 0; k < n_obj; ++k) {
          models[k].add_observation(pool.encoded()[i], (*y)[k]);
        }
      }
    }

    if (round % options.refit_every == 0) {
      for (auto& m : models) m.refit_hyperparameters(rng);
    }
  }

  return log.answer();
}

}  // namespace ppat::baselines
