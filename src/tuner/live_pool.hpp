// CandidatePool over a live tool: reveals are real flow runs dispatched
// through flow::EvalService instead of benchmark-table lookups, so
// run_ppatuner (and any other pool-driven method) works unchanged against a
// production PD tool with bounded licenses, retries, deadlines, and
// permanent run failures.
//
// Semantics mirror BenchmarkCandidatePool where both are defined:
//   * the first SUCCESSFUL reveal of a candidate counts as one tool run;
//     repeats are free (memoized);
//   * a candidate whose evaluation permanently fails (EvalService exhausted
//     its retries) is remembered as failed: reveal_batch() reports
//     ok = false on the first and on every later attempt, and it never
//     counts as a run.
//
// With a fault-free oracle this pool is observationally identical to a
// BenchmarkCandidatePool built from the same configurations, for any
// license count — reveal_batch stores outcomes by index, so ordering never
// depends on scheduling.
//
// The pool keeps no journal: reveal_batch forwards the evaluator's
// per-completion observer to the caller's RevealObserver, through which
// run_ppatuner journals each outcome the moment its run ends.
#pragma once

#include "flow/eval_service.hpp"
#include "tuner/problem.hpp"

namespace ppat::tuner {

/// Live tuning task: enumerated candidate configurations whose QoR comes
/// from a flow::BatchEvaluator on demand — the in-process EvalService or a
/// distributed coordinator, interchangeably. The evaluator must outlive the
/// pool.
class LiveCandidatePool final : public CandidatePool {
 public:
  /// `objectives` selects the QoR metrics forming the objective vector
  /// (indices into flow::QoR::metric). Candidate encodings come from
  /// `service`'s parameter space.
  LiveCandidatePool(std::vector<flow::Config> candidates,
                    std::vector<std::size_t> objectives,
                    flow::BatchEvaluator& service);

  std::size_t size() const override { return encoded_.size(); }
  std::size_t num_objectives() const override { return objectives_.size(); }
  const std::vector<linalg::Vector>& encoded() const override {
    return encoded_;
  }
  const std::vector<std::size_t>& objectives() const override {
    return objectives_;
  }

  /// Dispatches the unknown candidates as one evaluator batch; `on_outcome`
  /// sees each outcome from the worker thread as its run ends.
  std::vector<RevealOutcome> reveal_batch(
      const std::vector<std::size_t>& indices,
      const RevealObserver& on_outcome = {}) override;

  bool is_revealed(std::size_t i) const override {
    return state_.at(i) == State::kRevealed;
  }
  std::size_t runs() const override { return runs_; }
  std::size_t failed_evaluations() const override { return failed_; }

  /// True when candidate i's evaluation permanently failed.
  bool is_failed(std::size_t i) const {
    return state_.at(i) == State::kFailed;
  }
  /// Last run record for candidate i (attempts, status, timing), or nullptr
  /// when it was never dispatched.
  const flow::RunRecord* record(std::size_t i) const;
  const flow::Config& config(std::size_t i) const { return candidates_.at(i); }

 private:
  enum class State : unsigned char { kUnknown, kRevealed, kFailed };

  /// Candidate i's outcome as reported by its run record.
  RevealOutcome outcome_of(std::size_t i, const flow::RunRecord& rec) const;

  std::vector<flow::Config> candidates_;
  std::vector<std::size_t> objectives_;
  std::vector<linalg::Vector> encoded_;
  flow::BatchEvaluator* service_;
  std::vector<State> state_;
  std::vector<flow::RunRecord> records_;  ///< valid where != kUnknown
  std::size_t runs_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace ppat::tuner
