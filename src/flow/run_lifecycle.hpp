// The run policy both batch evaluators share.
//
// flow::EvalService (tool runs on in-process threads) and
// dist::DistributedEvalService (tool runs on a worker fleet) differ only in
// how they dispatch. What happens to a run once dispatched is decided here,
// so the two stay interchangeable under tuner::LiveCandidatePool:
//
//   * retry: a failed attempt is retried while attempts remain, retry r
//     (1-based) after backoff * 2^(r-1);
//   * deadline, from BATCH SUBMISSION, checked at every dispatch (after any
//     backoff) and when a result returns: a late run is a kTimedOut that is
//     never retried;
//   * watchdog: the median of the last 64 successful run times, armed at
//     watchdog_min_samples, gives the cancel threshold
//     max(watchdog_floor, watchdog_multiple * median);
//   * stats: a record is folded into EvalServiceStats when it is closed.
//
// Every member is thread-safe: EvalService's license workers and watchdog
// thread share one lifecycle.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/license_broker.hpp"
#include "flow/pd_tool.hpp"
#include "journal/journal.hpp"

namespace ppat::flow {

/// Outcome of a tool run. The journal and the reveal ledger persist the
/// same three values, so it is one enum (journal::reveal_status_name
/// prints it).
using RunStatus = journal::RevealStatus;

/// Outcome of one configuration's evaluation (all attempts folded in).
struct RunRecord {
  RunStatus status = RunStatus::kFailed;
  QoR qor{};               ///< valid iff status == kOk
  /// Total attempts made. 0 means the run was never dispatched (its
  /// deadline expired while queued); otherwise >= 1.
  std::size_t attempts = 0;
  std::string error;       ///< last failure reason iff status != kOk
  double elapsed_ms = 0.0;  ///< wall time across all attempts

  bool ok() const { return status == RunStatus::kOk; }
  std::size_t retries() const { return attempts > 0 ? attempts - 1 : 0; }
};

/// Aggregate counters across all batches (monitoring / bench output).
struct EvalServiceStats {
  std::size_t batches = 0;
  std::size_t runs_ok = 0;
  std::size_t runs_failed = 0;
  std::size_t runs_timed_out = 0;
  /// Subset of runs_timed_out that the watchdog cancelled as hung.
  std::size_t runs_watchdog_cancelled = 0;
  std::size_t attempts = 0;
  std::size_t retries = 0;
};

/// The settable run policy, shared by EvalServiceOptions and
/// dist::DistributedOptions.
struct RunPolicy {
  /// Total attempts per configuration (1 = no retry; 0 is read as 1).
  std::size_t max_attempts = 3;
  /// Backoff before retry r (1-based): retry_backoff * 2^(r-1). Zero
  /// disables waiting (tests).
  std::chrono::milliseconds retry_backoff{0};
  /// Wall-clock deadline per configuration, measured from BATCH SUBMISSION
  /// (queueing and license waits count). A run past it is kTimedOut and
  /// NOT retried; attempts == 0 marks one that never dispatched. Zero
  /// disables the deadline. Cooperative: an attempt in flight is classified
  /// when it returns — a real tool wrapper should also enforce a hard kill
  /// (see CancellableOracle + the watchdog).
  std::chrono::milliseconds run_deadline{0};

  /// Hung-run watchdog: cancel any run whose wall-clock exceeds
  /// watchdog_multiple * (rolling median of successful run durations).
  /// 0 disables the watchdog (default: tool run times vary legitimately;
  /// enabling this is a per-deployment decision).
  double watchdog_multiple = 0.0;
  /// Never cancel before this much wall-clock, regardless of the median
  /// (guards the cold-start regime where the median is noisy).
  std::chrono::milliseconds watchdog_floor{1000};
  /// Successful runs required before the watchdog arms.
  std::size_t watchdog_min_samples = 5;

  /// Shared license pool for multi-session deployments: every tool ATTEMPT
  /// holds one RAII lease (fair across sessions — see LicenseBroker), so
  /// every outcome path returns it. Null (default): the evaluator's own
  /// worker count is the only concurrency bound.
  std::shared_ptr<LicenseBroker> license_broker;
  /// This evaluator's identity in the broker's fair scheduling (one tag
  /// per tuning session). Ignored when license_broker is null.
  std::uint64_t session_tag = 0;
};

/// Retry, deadline, watchdog and stats policy for tool runs. Methods that
/// close a record set its terminal status and error and fold it into
/// stats(); the evaluator closes each record exactly once.
class RunLifecycle {
 public:
  using clock = std::chrono::steady_clock;

  /// Successful run durations kept for the watchdog's rolling median.
  static constexpr std::size_t kWatchdogWindow = 64;

  explicit RunLifecycle(RunPolicy policy);

  /// Backoff before retry r: retry_backoff * 2^(r-1); 0 for r == 0. A run
  /// that has made `attempts` attempts waits backoff(attempts).
  std::chrono::milliseconds backoff(std::size_t retry) const;

  /// True when a run submitted at `batch_t0` is past its deadline at `now`.
  bool past_deadline(clock::time_point batch_t0, clock::time_point now) const;
  /// Closes `rec` as a deadline kTimedOut: "deadline expired while queued"
  /// when it never dispatched, "run exceeded deadline" otherwise.
  void expire(RunRecord& rec);

  /// Closes `rec` after a successful attempt that took `run_ms` and
  /// returned at `now`: kOk (`run_ms` joins the watchdog window), or a
  /// deadline kTimedOut when it returned past the deadline.
  void succeed(RunRecord& rec, const QoR& qor, double run_ms,
               clock::time_point batch_t0, clock::time_point now);
  /// After a failed attempt: true when another attempt remains (`rec`
  /// stays open); otherwise closes `rec` as kFailed with `error`.
  bool fail_attempt(RunRecord& rec, std::string error);
  /// Closes `rec` as kFailed with no retry (e.g. no worker is left).
  void fail(RunRecord& rec, std::string error);
  /// Closes `rec` as a watchdog cancellation: a PERMANENT kTimedOut (the
  /// run is known to hang, so it is never retried).
  void cancel_hung(RunRecord& rec);

  /// The watchdog's cancel threshold in ms; 0 while it is disabled or not
  /// yet armed.
  double watchdog_threshold_ms() const;

  /// Counts one finished batch.
  void count_batch();
  EvalServiceStats stats() const;

 private:
  void close(RunRecord& rec, RunStatus status, std::string error);

  RunPolicy policy_;
  mutable std::mutex mutex_;
  EvalServiceStats stats_;
  /// Ring buffer of recent successful run durations (ms).
  std::vector<double> recent_ok_ms_;
  std::size_t recent_pos_ = 0;
};

}  // namespace ppat::flow
