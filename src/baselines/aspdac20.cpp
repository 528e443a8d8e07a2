#include "baselines/aspdac20.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "baselines/shared.hpp"
#include "tree/regression_tree.hpp"

namespace ppat::baselines {
namespace {

/// Average normalized feature importances across per-objective boosted-tree
/// fits on the source data.
std::vector<double> source_importances(const tuner::SourceData& source,
                                       const Aspdac20Options& options) {
  const std::size_t d = source.xs.front().size();
  std::vector<double> avg(d, 0.0);
  tree::BoostingOptions bo;
  bo.num_trees = options.trees;
  bo.tree.max_depth = options.tree_depth;
  bo.seed = options.seed;
  for (const auto& ys : source.ys) {
    tree::GradientBoosting model;
    model.fit(source.xs, ys, bo);
    const auto imp = model.feature_importances();
    for (std::size_t f = 0; f < d; ++f) avg[f] += imp[f];
  }
  const double norm = static_cast<double>(source.ys.size());
  for (double& v : avg) v /= norm;
  return avg;
}

}  // namespace

tuner::TuningResult run_aspdac20(tuner::CandidatePool& pool,
                                 const tuner::SourceData* source,
                                 const Aspdac20Options& options) {
  const std::size_t n = pool.size();
  const std::size_t n_obj = pool.num_objectives();
  const std::size_t d = pool.encoded().front().size();
  common::Rng rng(options.seed);

  RevealLog log(pool);

  // ---- Phase 1-2: importance-guided model-less exploration ----
  const std::size_t explore_budget = std::max<std::size_t>(
      4, static_cast<std::size_t>(options.exploration_fraction *
                                  static_cast<double>(options.budget)));
  std::vector<std::size_t> ranked_features(d);
  for (std::size_t f = 0; f < d; ++f) ranked_features[f] = f;
  if (source != nullptr && source->size() > 0) {
    const auto importance = source_importances(*source, options);
    std::sort(ranked_features.begin(), ranked_features.end(),
              [&importance](std::size_t a, std::size_t b) {
                return importance[a] > importance[b];
              });
  } else {
    rng.shuffle(ranked_features);
  }
  const std::size_t sig_features = std::min(options.important_features, d);

  // Median split per signature feature (over the pool).
  std::vector<double> medians(sig_features);
  {
    std::vector<double> column(n);
    for (std::size_t s = 0; s < sig_features; ++s) {
      const std::size_t f = ranked_features[s];
      for (std::size_t i = 0; i < n; ++i) column[i] = pool.encoded()[i][f];
      std::nth_element(column.begin(),
                       column.begin() + static_cast<std::ptrdiff_t>(n / 2),
                       column.end());
      medians[s] = column[n / 2];
    }
  }
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t sig = 0;
    for (std::size_t s = 0; s < sig_features; ++s) {
      sig = (sig << 1) |
            (pool.encoded()[i][ranked_features[s]] > medians[s] ? 1u : 0u);
    }
    groups[sig].push_back(i);
  }
  // Round-robin one random representative per group: the groups' members
  // in shuffled order, interleaved across groups. The exploration reveals
  // this sequence in order until its budget of runs is used; a permanently
  // failed reveal spends a candidate but no run.
  for (auto& [sig, members] : groups) rng.shuffle(members);
  std::vector<std::size_t> sequence;
  sequence.reserve(n);
  for (std::size_t cursor = 0; sequence.size() < n; ++cursor) {
    for (const auto& [sig, members] : groups) {
      if (cursor < members.size()) sequence.push_back(members[cursor]);
    }
  }
  const std::size_t explore_runs = std::min(explore_budget, options.budget);
  for (std::size_t next = 0; pool.runs() < explore_runs && next < n;) {
    const std::size_t take = std::min(explore_runs - pool.runs(), n - next);
    log.reveal_batch({sequence.begin() + next,
                      sequence.begin() + next + take});
    next += take;
  }
  log.require_a_success("run_aspdac20");

  // ---- Phase 3: tree-model exploitation ----
  tree::BoostingOptions bo;
  bo.num_trees = options.trees;
  bo.tree.max_depth = options.tree_depth;
  while (pool.runs() < options.budget) {
    bo.seed = rng.next_u64();
    std::vector<tree::GradientBoosting> models(n_obj);
    for (std::size_t k = 0; k < n_obj; ++k) {
      models[k].fit(log.train_x(), log.train_y()[k], bo);
    }
    const std::vector<std::size_t> unrevealed = log.unspent();
    if (unrevealed.empty()) break;
    std::vector<pareto::Point> predicted(unrevealed.size(),
                                         pareto::Point(n_obj));
    for (std::size_t c = 0; c < unrevealed.size(); ++c) {
      for (std::size_t k = 0; k < n_obj; ++k) {
        predicted[c][k] = models[k].predict(pool.encoded()[unrevealed[c]]);
      }
    }

    std::vector<std::size_t> front = pareto::pareto_front_indices(predicted);
    rng.shuffle(front);
    const std::size_t batch = std::min(
        {options.batch_size, front.size(), options.budget - pool.runs()});
    if (batch == 0) break;
    std::vector<std::size_t> picks(batch);
    for (std::size_t b = 0; b < batch; ++b) picks[b] = unrevealed[front[b]];
    log.reveal_batch(picks);
  }

  return log.answer();
}

}  // namespace ppat::baselines
