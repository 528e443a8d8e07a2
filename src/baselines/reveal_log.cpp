#include "baselines/reveal_log.hpp"

#include <string>

namespace ppat::baselines {

RevealLog::RevealLog(tuner::CandidatePool& pool)
    : pool_(pool), spent_(pool.size(), false) {}

std::optional<pareto::Point> RevealLog::reveal(std::size_t i) {
  spent_[i] = true;
  try {
    values_.push_back(pool_.reveal(i));
  } catch (const tuner::PoolEvaluationError&) {
    ++failures_;
    return std::nullopt;
  }
  revealed_.push_back(i);
  return values_.back();
}

void RevealLog::require_a_success(const char* who) const {
  if (revealed_.empty() && failures_ > 0) {
    throw tuner::PoolEvaluationError(
        std::string(who) + ": all " + std::to_string(failures_) +
        " reveals of the initial design failed");
  }
}

tuner::TuningResult RevealLog::answer() const {
  tuner::TuningResult result;
  for (std::size_t f : pareto::pareto_front_indices(values_)) {
    result.pareto_indices.push_back(revealed_[f]);
  }
  result.tool_runs = pool_.runs();
  result.failed_runs = pool_.failed_evaluations();
  return result;
}

}  // namespace ppat::baselines
