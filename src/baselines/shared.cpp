#include "baselines/shared.hpp"

#include <algorithm>
#include <string>

namespace ppat::baselines {

RevealLog::RevealLog(tuner::CandidatePool& pool)
    : pool_(pool),
      spent_(pool.size(), false),
      train_y_(pool.num_objectives()) {}

void RevealLog::reveal_batch(const std::vector<std::size_t>& indices) {
  for (std::size_t i : indices) spent_[i] = true;
  const auto outcomes = pool_.reveal_batch(indices);
  for (std::size_t j = 0; j < indices.size(); ++j) {
    if (!outcomes[j].ok) {
      ++failures_;
      continue;
    }
    revealed_.push_back(indices[j]);
    train_x_.push_back(pool_.encoded()[indices[j]]);
    for (std::size_t k = 0; k < train_y_.size(); ++k) {
      train_y_[k].push_back(outcomes[j].value[k]);
    }
  }
}

std::vector<std::size_t> RevealLog::unspent() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spent_.size(); ++i) {
    if (!spent_[i]) out.push_back(i);
  }
  return out;
}

void RevealLog::require_a_success(const char* who) const {
  if (revealed_.empty() && failures_ > 0) {
    throw tuner::PoolEvaluationError(
        std::string(who) + ": all " + std::to_string(failures_) +
        " reveals of the initial design failed");
  }
}

tuner::TuningResult RevealLog::answer() const {
  std::vector<pareto::Point> values(revealed_.size(),
                                    pareto::Point(train_y_.size()));
  for (std::size_t k = 0; k < train_y_.size(); ++k) {
    for (std::size_t r = 0; r < revealed_.size(); ++r) {
      values[r][k] = train_y_[k][r];
    }
  }
  tuner::TuningResult result;
  for (std::size_t f : pareto::pareto_front_indices(values)) {
    result.pareto_indices.push_back(revealed_[f]);
  }
  result.tool_runs = pool_.runs();
  result.failed_runs = pool_.failed_evaluations();
  return result;
}

std::size_t initial_design_size(std::size_t n, std::size_t min_init,
                                double init_fraction, std::size_t budget) {
  return std::min(
      {n,
       std::max(min_init, static_cast<std::size_t>(
                              init_fraction * static_cast<double>(n))),
       budget});
}

std::vector<std::size_t> pick_predicted_front(
    const std::vector<pareto::Point>& predicted, std::size_t batch,
    double explore_fraction, common::Rng& rng) {
  std::vector<std::size_t> front = pareto::pareto_front_indices(predicted);
  rng.shuffle(front);
  std::vector<bool> taken(predicted.size(), false);
  std::vector<std::size_t> picks;
  std::size_t front_cursor = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    std::size_t pick;
    if (rng.uniform01() < explore_fraction || front_cursor >= front.size()) {
      pick = static_cast<std::size_t>(rng.next_below(predicted.size()));
    } else {
      pick = front[front_cursor++];
    }
    if (taken[pick]) continue;  // duplicate random pick within the batch
    taken[pick] = true;
    picks.push_back(pick);
  }
  return picks;
}

}  // namespace ppat::baselines
