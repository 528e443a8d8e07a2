// The shared tuning-problem harness every method (PPATuner and the four
// baselines) runs against.
//
// A tuning task is a finite pool of enumerated parameter configurations; a
// "tool run" reveals one configuration's QoR. Two pool implementations
// exist:
//
//   * BenchmarkCandidatePool — the paper's evaluation protocol (§4.1): a
//     fully pre-evaluated BenchmarkSet replayed as a lookup table. Reveals
//     never fail; golden values are available offline for scoring.
//   * LiveCandidatePool (live_pool.hpp) — a production pool driving a real
//     tool through flow::EvalService, where runs can crash, hang, or time
//     out; a permanently failed evaluation is a first-class outcome.
//
// Tuners only see the abstract CandidatePool, so the same loop drives both.
// Methods are compared on (a) hypervolume error, (b) ADRS, and (c) the
// number of tool runs.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/benchmark.hpp"
#include "pareto/pareto.hpp"

namespace ppat::tuner {

/// Objective subsets used in the paper's tables.
inline const std::vector<std::size_t> kAreaDelay = {0, 2};
inline const std::vector<std::size_t> kPowerDelay = {1, 2};
inline const std::vector<std::size_t> kAreaPowerDelay = {0, 1, 2};
const char* objective_space_name(const std::vector<std::size_t>& objectives);

/// Thrown by a tuning method when every one of its initial reveals failed
/// permanently, leaving it no data to fit (reveal_batch itself reports
/// failures as per-candidate outcomes).
class PoolEvaluationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Read-once access to a tuning task's candidates with run accounting.
///
/// Contract: the first successful reveal of each candidate counts as one
/// tool run; repeats are free (cached result). A candidate whose evaluation
/// permanently fails never counts as a run and stays failed on every later
/// reveal attempt.
class CandidatePool {
 public:
  virtual ~CandidatePool() = default;

  virtual std::size_t size() const = 0;
  virtual std::size_t num_objectives() const = 0;
  /// Unit-cube encodings of all candidates (surrogate model inputs).
  virtual const std::vector<linalg::Vector>& encoded() const = 0;
  /// QoR metric indices forming the objective vector.
  virtual const std::vector<std::size_t>& objectives() const = 0;

  /// Outcome of one candidate in a batch reveal. The run-accounting fields
  /// exist so journaling callers can persist the true outcome; offline
  /// pools report the defaults (one instantaneous successful attempt).
  struct RevealOutcome {
    bool ok = false;
    pareto::Point value;  ///< valid iff ok
    std::string error;    ///< failure reason iff !ok
    /// Failure was a (permanent) timeout — deadline or watchdog — rather
    /// than a tool crash. Meaningful iff !ok.
    bool timed_out = false;
    std::uint32_t attempts = 1;  ///< tool attempts (0 = never dispatched)
    double elapsed_ms = 0.0;     ///< tool wall-clock behind this outcome
  };

  /// Called once per position of a reveal_batch call before it returns,
  /// possibly from evaluation worker threads (so it must be thread-safe):
  /// callers persist each outcome the moment it exists.
  using RevealObserver =
      std::function<void(std::size_t position, const RevealOutcome& outcome)>;

  /// Reveals many candidates (a single reveal is a batch of one); failures
  /// come back as per-candidate outcomes (never throws for run failures),
  /// and `on_outcome` (when set) sees each one as it completes. Live pools
  /// dispatch the whole batch concurrently across tool licenses.
  virtual std::vector<RevealOutcome> reveal_batch(
      const std::vector<std::size_t>& indices,
      const RevealObserver& on_outcome = {}) = 0;

  virtual bool is_revealed(std::size_t i) const = 0;
  /// Successful first reveals so far ("tool runs" in the paper's metric).
  virtual std::size_t runs() const = 0;
  /// Candidates whose evaluation permanently failed.
  virtual std::size_t failed_evaluations() const { return 0; }
};

/// The paper's offline pool: replays a fully pre-evaluated BenchmarkSet.
class BenchmarkCandidatePool final : public CandidatePool {
 public:
  /// `objectives` selects which QoR metrics form the objective vector
  /// (indices into flow::QoR::metric).
  BenchmarkCandidatePool(const flow::BenchmarkSet* benchmark,
                         std::vector<std::size_t> objectives);

  std::size_t size() const override { return encoded_.size(); }
  std::size_t num_objectives() const override { return objectives_.size(); }
  const std::vector<linalg::Vector>& encoded() const override {
    return encoded_;
  }
  const flow::BenchmarkSet& benchmark() const { return *benchmark_; }
  const std::vector<std::size_t>& objectives() const override {
    return objectives_;
  }

  /// Every outcome succeeds at once (attempts = 1, elapsed_ms = 0).
  std::vector<RevealOutcome> reveal_batch(
      const std::vector<std::size_t>& indices,
      const RevealObserver& on_outcome = {}) override;
  bool is_revealed(std::size_t i) const override { return revealed_[i]; }
  std::size_t runs() const override { return runs_; }

  /// Golden objective vector WITHOUT counting a run. Only for evaluation
  /// code (computing HV/ADRS of a final answer), never for tuners.
  pareto::Point golden(std::size_t i) const;

  /// The true Pareto front of the whole pool (evaluation only).
  std::vector<pareto::Point> golden_front() const;

 private:
  const flow::BenchmarkSet* benchmark_;
  std::vector<std::size_t> objectives_;
  std::vector<linalg::Vector> encoded_;
  std::vector<bool> revealed_;
  std::size_t runs_ = 0;
};

/// What every tuning method returns.
struct TuningResult {
  /// Candidate indices the method declares (approximately) Pareto-optimal.
  std::vector<std::size_t> pareto_indices;
  std::size_t tool_runs = 0;
  /// Candidates whose evaluation permanently failed during the run (live
  /// pools only; always 0 for benchmark replay).
  std::size_t failed_runs = 0;
};

/// Paper's quality indicators for a result.
struct ResultQuality {
  double hv_error = 0.0;
  double adrs = 0.0;
  std::size_t runs = 0;
};

/// Scores a result against the pool's golden front. The predicted set is
/// evaluated at its golden QoR values (the paper feeds the predicted
/// configurations through the PD flow for final measurement).
ResultQuality evaluate_result(const BenchmarkCandidatePool& pool,
                              const TuningResult& result);

/// Source-task data handed to transfer-capable methods: encoded configs and
/// golden values per objective, subsampled to `max_points` (paper: 200).
struct SourceData {
  std::vector<linalg::Vector> xs;
  std::vector<linalg::Vector> ys;  ///< [objective index][point]

  static SourceData from_benchmark(const flow::BenchmarkSet& source,
                                   const std::vector<std::size_t>& objectives,
                                   std::size_t max_points,
                                   std::uint64_t seed);
  std::size_t size() const { return xs.size(); }
};

}  // namespace ppat::tuner
