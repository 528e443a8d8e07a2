// What the four baselines share. RevealLog is their one reveal path: a
// candidate is spent once it has been revealed or its evaluation has
// permanently failed (live pools only); it is never picked again, and only
// successful reveals become training data. Every baseline answers with the
// Pareto front of its successful reveals. Next to it sit the initial-design
// size of TCAD'19, MLCAD'19 and DAC'19, and the predicted-front batch picker
// of TCAD'19 and DAC'19.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "tuner/problem.hpp"

namespace ppat::baselines {

class RevealLog {
 public:
  explicit RevealLog(tuner::CandidatePool& pool);

  /// Reveals `indices` with one CandidatePool::reveal_batch call (a live
  /// pool runs them concurrently across its licenses) and marks them spent.
  /// The successful ones are appended, in batch order, to revealed(),
  /// train_x() and train_y().
  void reveal_batch(const std::vector<std::size_t>& indices);

  /// The candidates not spent yet, ascending.
  std::vector<std::size_t> unspent() const;

  /// Successful reveals in reveal order, their encodings, and their
  /// objective values as [objective][row].
  const std::vector<std::size_t>& revealed() const { return revealed_; }
  const std::vector<linalg::Vector>& train_x() const { return train_x_; }
  const std::vector<linalg::Vector>& train_y() const { return train_y_; }

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
  std::vector<std::size_t> revealed_;
  std::vector<linalg::Vector> train_x_;
  std::vector<linalg::Vector> train_y_;
  std::size_t failures_ = 0;
};

/// Initial design size: max(min_init, init_fraction * n), capped by the
/// pool size and the run budget.
std::size_t initial_design_size(std::size_t n, std::size_t min_init,
                                double init_fraction, std::size_t budget);

/// Up to `batch` distinct positions into `predicted` (the predicted
/// objective vectors of the unrevealed candidates): the predicted Pareto
/// front in shuffled order, except that each pick is taken uniformly at
/// random with probability `explore_fraction` or once the front is used up.
/// A random pick that repeats an earlier one is skipped, so the batch can
/// come out short.
std::vector<std::size_t> pick_predicted_front(
    const std::vector<pareto::Point>& predicted, std::size_t batch,
    double explore_fraction, common::Rng& rng);

}  // namespace ppat::baselines
