#include "baselines/dac19.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/shared.hpp"
#include "mf/matrix_factorization.hpp"

namespace ppat::baselines {
namespace {

/// Index of the pool candidate nearest (L2 in the unit cube) to `x`.
std::size_t nearest_candidate(const std::vector<linalg::Vector>& encoded,
                              const linalg::Vector& x) {
  std::size_t best = 0;
  double best_d = 1e300;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    double d = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k) {
      const double diff = encoded[i][k] - x[k];
      d += diff * diff;
    }
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

}  // namespace

tuner::TuningResult run_dac19(tuner::CandidatePool& pool,
                              const tuner::SourceData* source,
                              const Dac19Options& options) {
  const std::size_t n = pool.size();
  const std::size_t n_obj = pool.num_objectives();
  common::Rng rng(options.seed);

  // ---- Source row: map source observations onto target-pool columns ----
  // (averaging duplicates that land on the same column).
  std::vector<std::vector<mf::Observation>> observed(n_obj);
  if (source != nullptr && source->size() > 0) {
    std::vector<double> sums(n, 0.0);
    std::vector<std::size_t> counts(n, 0);
    std::vector<std::size_t> cols(source->size());
    for (std::size_t s = 0; s < source->size(); ++s) {
      cols[s] = nearest_candidate(pool.encoded(), source->xs[s]);
    }
    for (std::size_t k = 0; k < n_obj; ++k) {
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0);
      for (std::size_t s = 0; s < source->size(); ++s) {
        sums[cols[s]] += source->ys[k][s];
        ++counts[cols[s]];
      }
      for (std::size_t c = 0; c < n; ++c) {
        if (counts[c] > 0) {
          observed[k].push_back(
              {0, c, sums[c] / static_cast<double>(counts[c])});
        }
      }
    }
  }

  RevealLog log(pool);
  // Successful reveals enter the target row.
  auto reveal = [&](const std::vector<std::size_t>& batch) {
    const std::size_t first = log.revealed().size();
    log.reveal_batch(batch);
    for (std::size_t r = first; r < log.revealed().size(); ++r) {
      for (std::size_t k = 0; k < n_obj; ++k) {
        observed[k].push_back({1, log.revealed()[r], log.train_y()[k][r]});
      }
    }
  };
  reveal(rng.sample_without_replacement(
      n, initial_design_size(n, options.min_init, options.init_fraction,
                             options.budget)));
  log.require_a_success("run_dac19");

  mf::MfOptions mf_opt;
  mf_opt.factors = options.factors;
  mf_opt.epochs = options.epochs;

  // ---- Recommend-evaluate-refine loop ----
  while (pool.runs() < options.budget) {
    mf_opt.seed = rng.next_u64();
    std::vector<mf::MatrixFactorization> models(n_obj);
    for (std::size_t k = 0; k < n_obj; ++k) {
      models[k].fit(2, n, observed[k], mf_opt);
    }

    // Predicted objective vectors of unrevealed candidates.
    const std::vector<std::size_t> unrevealed = log.unspent();
    if (unrevealed.empty()) break;
    std::vector<pareto::Point> predicted(unrevealed.size(),
                                         pareto::Point(n_obj));
    for (std::size_t c = 0; c < unrevealed.size(); ++c) {
      for (std::size_t k = 0; k < n_obj; ++k) {
        predicted[c][k] = models[k].predict(1, unrevealed[c]);
      }
    }

    // Recommend the predicted-Pareto candidates (random subset if the front
    // exceeds the batch), diversified with a share of random picks — the
    // original's recommendation lists are not purely greedy either.
    const std::size_t batch =
        std::min({options.batch_size, unrevealed.size(),
                  options.budget - pool.runs()});
    std::vector<std::size_t> picks = pick_predicted_front(
        predicted, batch, options.explore_fraction, rng);
    if (picks.empty()) break;
    for (std::size_t& c : picks) c = unrevealed[c];
    reveal(picks);
  }

  return log.answer();
}

}  // namespace ppat::baselines
