// The reveal bookkeeping the four baselines share. A candidate is spent once
// it has been revealed or its evaluation has permanently failed (live pools
// only): it is never picked again, and only successful reveals become
// training data. Every baseline answers with the Pareto front of its
// successful reveals.
#pragma once

#include <optional>
#include <vector>

#include "tuner/problem.hpp"

namespace ppat::baselines {

class RevealLog {
 public:
  explicit RevealLog(tuner::CandidatePool& pool);

  /// Reveals candidate i and marks it spent; nullopt when its evaluation
  /// permanently failed.
  std::optional<pareto::Point> reveal(std::size_t i);

  bool spent(std::size_t i) const { return spent_[i]; }

  /// Throws PoolEvaluationError when reveals were tried and every one
  /// failed (a misconfigured live tool): there is no training data. Called
  /// once the baseline's initial design is revealed; `who` names it.
  void require_a_success(const char* who) const;

  /// Pareto front of the successful reveals, with the pool's run and
  /// failure counts.
  tuner::TuningResult answer() const;

 private:
  tuner::CandidatePool& pool_;
  std::vector<bool> spent_;
  std::vector<std::size_t> revealed_;  ///< successful reveals, in order
  std::vector<pareto::Point> values_;  ///< their objective vectors
  std::size_t failures_ = 0;
};

}  // namespace ppat::baselines
