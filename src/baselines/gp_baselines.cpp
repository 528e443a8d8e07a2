// TCAD'19 and MLCAD'19: one loop of per-objective plain GPs refined on a
// fixed budget. The two differ only in the rule that picks each round's
// batch from the posterior over the unrevealed candidates.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "baselines/mlcad19.hpp"
#include "baselines/shared.hpp"
#include "baselines/tcad19.hpp"
#include "tuner/surrogate.hpp"

namespace ppat::baselines {
namespace {

/// Picks up to `batch` distinct positions into the unrevealed candidates,
/// given their posterior means and variances (one objective vector each).
using SelectionRule = std::function<std::vector<std::size_t>(
    const std::vector<pareto::Point>& means,
    const std::vector<pareto::Point>& variances, std::size_t batch,
    common::Rng& rng)>;

/// Reveals an initial design, fits one PlainGpSurrogate per objective, then
/// each round predicts every unrevealed candidate (through the posterior
/// cache), reveals the rule's batch with one reveal_batch call, folds the
/// successes in with one batched append per objective, and refits every
/// `refit_every` rounds, until `budget` runs are spent. Both methods'
/// options name the loop's other settings alike.
template <class Options>
tuner::TuningResult run_gp_loop(tuner::CandidatePool& pool, const char* name,
                                const Options& options, std::size_t budget,
                                const SelectionRule& select) {
  if (options.refit_every == 0) {
    throw std::invalid_argument(std::string(name) +
                                ": refit_every must be > 0");
  }
  const std::size_t n = pool.size();
  const std::size_t n_obj = pool.num_objectives();
  common::Rng rng(options.seed);

  RevealLog log(pool);
  log.reveal_batch(rng.sample_without_replacement(
      n, initial_design_size(n, options.min_init, options.init_fraction,
                             budget)));
  log.require_a_success(name);

  std::vector<std::unique_ptr<tuner::Surrogate>> models;
  for (std::size_t k = 0; k < n_obj; ++k) {
    models.push_back(std::make_unique<tuner::PlainGpSurrogate>());
  }
  tuner::for_each_objective(n_obj, [&](std::size_t k) {
    models[k]->fit(log.train_x(), log.train_y()[k]);
  });
  tuner::refit_models(models, rng);

  for (std::size_t round = 1; pool.runs() < budget; ++round) {
    const std::vector<std::size_t> unrevealed = log.unspent();
    if (unrevealed.empty()) break;
    std::vector<linalg::Vector> inputs;
    inputs.reserve(unrevealed.size());
    for (std::size_t i : unrevealed) inputs.push_back(pool.encoded()[i]);
    // Each objective's task writes only component k of every vector.
    std::vector<pareto::Point> means(unrevealed.size(), pareto::Point(n_obj));
    std::vector<pareto::Point> variances = means;
    tuner::for_each_objective(n_obj, [&](std::size_t k) {
      linalg::Vector mu, var;
      models[k]->predict_batch_cached(unrevealed, inputs, mu, var);
      for (std::size_t c = 0; c < unrevealed.size(); ++c) {
        means[c][k] = mu[c];
        variances[c][k] = var[c];
      }
    });

    std::vector<std::size_t> batch =
        select(means, variances,
               std::min({options.batch_size, unrevealed.size(),
                         budget - pool.runs()}),
               rng);
    if (batch.empty()) break;
    for (std::size_t& c : batch) c = unrevealed[c];
    const std::size_t first = log.revealed().size();
    log.reveal_batch(batch);
    const std::vector<linalg::Vector> xs(log.train_x().begin() + first,
                                         log.train_x().end());
    tuner::for_each_objective(n_obj, [&](std::size_t k) {
      const linalg::Vector& ys = log.train_y()[k];
      models[k]->add_observation_batch(
          xs, linalg::Vector(ys.begin() + first, ys.end()));
    });
    if (round % options.refit_every == 0) tuner::refit_models(models, rng);
  }
  return log.answer();
}

}  // namespace

tuner::TuningResult run_tcad19(tuner::CandidatePool& pool,
                               const Tcad19Options& options) {
  // The predicted front, mixed with a share of random exploration.
  return run_gp_loop(
      pool, "run_tcad19", options, options.max_runs,
      [&options](const std::vector<pareto::Point>& means,
                 const std::vector<pareto::Point>&, std::size_t batch,
                 common::Rng& rng) {
        return pick_predicted_front(means, batch, options.explore_fraction,
                                    rng);
      });
}

tuner::TuningResult run_mlcad19(tuner::CandidatePool& pool,
                                const Mlcad19Options& options) {
  // The lowest equal-weight sums of per-objective LCB scores, each
  // normalized to [0, 1] over the unrevealed candidates; ties go to the
  // lower position.
  return run_gp_loop(
      pool, "run_mlcad19", options, options.budget,
      [&options](const std::vector<pareto::Point>& means,
                 const std::vector<pareto::Point>& variances,
                 std::size_t batch, common::Rng&) {
        const std::size_t count = means.size();
        const std::size_t n_obj = means.front().size();
        const double w = 1.0 / static_cast<double>(n_obj);
        std::vector<double> score(count, 0.0), lcb(count);
        for (std::size_t k = 0; k < n_obj; ++k) {
          for (std::size_t c = 0; c < count; ++c) {
            lcb[c] = means[c][k] -
                     options.kappa * std::sqrt(std::max(0.0, variances[c][k]));
          }
          const auto [best, worst] = std::ranges::minmax(lcb);
          const double span = std::max(1e-12, worst - best);
          for (std::size_t c = 0; c < count; ++c) {
            score[c] += w * ((lcb[c] - best) / span);
          }
        }
        std::vector<std::size_t> order(count);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::partial_sort(order.begin(), order.begin() + batch, order.end(),
                          [&score](std::size_t a, std::size_t b) {
                            return score[a] < score[b] ||
                                   (score[a] == score[b] && a < b);
                          });
        order.resize(batch);
        return order;
      });
}

}  // namespace ppat::baselines
