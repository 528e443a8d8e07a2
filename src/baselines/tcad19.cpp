#include "baselines/tcad19.hpp"

#include <algorithm>
#include <stdexcept>

#include "baselines/reveal_log.hpp"
#include "tuner/surrogate.hpp"

namespace ppat::baselines {

tuner::TuningResult run_tcad19(tuner::CandidatePool& pool,
                               const Tcad19Options& options) {
  if (options.refit_every == 0) {
    throw std::invalid_argument("run_tcad19: refit_every must be > 0");
  }
  const std::size_t n = pool.size();
  const std::size_t n_obj = pool.num_objectives();
  common::Rng rng(options.seed);

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

  const std::size_t init_count = std::min(
      {n, std::max(options.min_init,
                   static_cast<std::size_t>(options.init_fraction *
                                            static_cast<double>(n))),
       options.max_runs});
  for (std::size_t i : rng.sample_without_replacement(n, init_count)) {
    reveal(i);
  }
  log.require_a_success("run_tcad19");

  std::vector<tuner::PlainGpSurrogate> models(n_obj);
  for (std::size_t k = 0; k < n_obj; ++k) {
    models[k].fit(train_x, train_y[k]);
    models[k].refit_hyperparameters(rng);
  }

  // ---- Active exploitation loop ----
  linalg::Vector means, vars;
  std::size_t round = 0;
  while (pool.runs() < options.max_runs) {
    ++round;
    std::vector<std::size_t> unrevealed_idx;
    std::vector<linalg::Vector> unrevealed_x;
    for (std::size_t i = 0; i < n; ++i) {
      if (!log.spent(i)) {
        unrevealed_idx.push_back(i);
        unrevealed_x.push_back(pool.encoded()[i]);
      }
    }
    if (unrevealed_idx.empty()) break;

    // Predicted objective vectors of every unevaluated configuration.
    std::vector<pareto::Point> predicted(unrevealed_idx.size(),
                                         pareto::Point(n_obj));
    for (std::size_t k = 0; k < n_obj; ++k) {
      models[k].predict_batch(unrevealed_x, means, vars);
      for (std::size_t c = 0; c < predicted.size(); ++c) {
        predicted[c][k] = means[c];
      }
    }
    std::vector<std::size_t> front = pareto::pareto_front_indices(predicted);
    rng.shuffle(front);

    const std::size_t batch = std::min(
        {options.batch_size, unrevealed_idx.size(),
         options.max_runs - pool.runs()});
    std::size_t front_cursor = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      std::size_t pick;
      if (rng.uniform01() < options.explore_fraction ||
          front_cursor >= front.size()) {
        pick = static_cast<std::size_t>(
            rng.next_below(unrevealed_idx.size()));
      } else {
        pick = front[front_cursor++];
      }
      const std::size_t i = unrevealed_idx[pick];
      if (log.spent(i)) continue;  // duplicate random pick within the batch
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
