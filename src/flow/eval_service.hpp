// Fault-tolerant dispatch of tool runs to a live QorOracle.
//
// The paper's selection step assumes every chosen configuration comes back
// with a golden QoR; a production flow does not cooperate. Real tool runs
// crash, hang, and are issued concurrently across a bounded number of tool
// licenses (the paper's own batch-selection motivation). EvalService is the
// layer that absorbs this: it takes a batch of configurations, fans them out
// over common::ThreadPool with at most `licenses` runs in flight, applies a
// per-run deadline and bounded retry with exponential backoff (the run
// policy of flow::RunLifecycle, shared with dist::DistributedEvalService),
// and returns a per-run outcome record instead of throwing — run failure is
// a first-class outcome (as in FIST, ICCAD'20, and GC-Tuner'24, which
// discard or penalize failed configurations rather than aborting the
// search).
//
// Hung runs are handled by an optional heartbeat watchdog: a monitor thread
// tracks every in-flight run and, once enough successful runs establish a
// rolling median duration, cancels any run exceeding a hard multiple of that
// median (CancelToken; oracles implementing CancellableOracle can abort the
// underlying tool run cooperatively). A watchdog-cancelled run is a
// PERMANENT kTimedOut — it is never retried, and callers that journal
// outcomes (tuner::LiveCandidatePool) persist the cancellation so a resumed
// run never re-selects a known-hung configuration.
//
// Determinism: records are stored by batch index, so result order never
// depends on completion order. As long as the oracle's outcome for a
// configuration does not depend on scheduling (true for PDTool and for the
// seeded FaultInjectingOracle), the returned records are identical for every
// license count. The watchdog (disabled by default) is the one knob that
// trades this determinism for liveness: whether a run gets cancelled depends
// on wall-clock behavior.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "flow/pd_tool.hpp"
#include "flow/run_lifecycle.hpp"

namespace ppat::common {
class ThreadPool;
}  // namespace ppat::common

namespace ppat::flow {

/// Thrown by oracles to signal that a tool run failed (crash, license loss,
/// injected fault). EvalService treats any exception from evaluate() as a
/// failed attempt; this type exists so wrappers can signal failures
/// explicitly.
class ToolRunError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cooperative cancellation flag for one in-flight tool run. The watchdog
/// sets it; the oracle (if cancellable) polls it and aborts.
class CancelToken {
 public:
  void request_cancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Opt-in interface for oracles that can abort an in-flight run. EvalService
/// detects it via dynamic_cast and routes evaluations through
/// evaluate_with_cancel; oracles that ignore the token still work — the
/// run's RESULT is discarded once the token fires, the tool just isn't
/// reclaimed until it returns on its own.
class CancellableOracle {
 public:
  virtual ~CancellableOracle() = default;
  virtual QoR evaluate_with_cancel(const ParameterSpace& space,
                                   const Config& config,
                                   const CancelToken& cancel) = 0;
};

/// EvalService's settings: the shared run policy plus how this service
/// runs its own tool invocations.
struct EvalServiceOptions : RunPolicy {
  /// Maximum tool runs in flight at once (parallel tool licenses). With one
  /// license the batch runs inline on the calling thread. When > 1 the
  /// oracle must tolerate concurrent evaluate() calls. With a
  /// license_broker this bounds only this service's own workers.
  std::size_t licenses = 1;
  /// Watchdog thread poll interval.
  std::chrono::milliseconds watchdog_poll{50};
};

/// Minimal batch-evaluation surface shared by the in-process EvalService and
/// out-of-process evaluators (dist::DistributedEvalService). Pool layers
/// (tuner::LiveCandidatePool) and the session manager program against this,
/// so where the tool runs actually execute — this process's threads or a
/// fleet of worker processes — is a deployment decision, not a code path.
class BatchEvaluator {
 public:
  virtual ~BatchEvaluator() = default;

  /// Called once per configuration as its record is finalized (must be
  /// thread-safe: EvalService invokes it from worker threads). Lets callers
  /// persist each outcome the moment it exists — a crash mid-batch then
  /// loses only runs still in flight, not the whole batch.
  using RunObserver =
      std::function<void(std::size_t index, const RunRecord& record)>;

  /// Evaluates a batch; record i corresponds to configs[i] regardless of
  /// completion order. Never throws for run failures — a failed run is a
  /// first-class RunRecord outcome.
  virtual std::vector<RunRecord> evaluate_batch(
      const std::vector<Config>& configs, const RunObserver& observer) = 0;
  std::vector<RunRecord> evaluate_batch(const std::vector<Config>& configs) {
    return evaluate_batch(configs, RunObserver{});
  }

  /// Parameter space the configurations live in.
  virtual const ParameterSpace& space() const = 0;
};

/// License-bounded, retrying, deadline-aware batch evaluator over a
/// QorOracle. The oracle and parameter space must outlive the service.
class EvalService final : public BatchEvaluator {
 public:
  EvalService(QorOracle& oracle, ParameterSpace space,
              EvalServiceOptions options = {});
  ~EvalService() override;

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Evaluates a batch with at most `licenses` runs in flight, invoking
  /// `observer` (if set) as each configuration completes. Record i
  /// corresponds to configs[i] regardless of completion order.
  std::vector<RunRecord> evaluate_batch(const std::vector<Config>& configs,
                                        const RunObserver& observer) override;
  using BatchEvaluator::evaluate_batch;

  const EvalServiceOptions& options() const { return options_; }
  const ParameterSpace& space() const override { return space_; }
  EvalServiceStats stats() const { return lifecycle_.stats(); }

 private:
  using clock = RunLifecycle::clock;

  RunRecord run_one(const Config& config, clock::time_point batch_t0);
  void watchdog_loop();

  QorOracle& oracle_;
  CancellableOracle* cancellable_ = nullptr;  ///< &oracle_ if it opts in
  ParameterSpace space_;
  EvalServiceOptions options_;
  /// Private pool sized to the license count (absent when licenses <= 1);
  /// kept across batches so workers are not re-spawned every round.
  std::unique_ptr<common::ThreadPool> pool_;
  RunLifecycle lifecycle_;

  // Watchdog state (all guarded by watchdog_mutex_).
  struct InFlight {
    clock::time_point start;
    CancelToken* token = nullptr;
  };
  mutable std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  std::uint64_t next_flight_id_ = 0;
  bool watchdog_stop_ = false;
  std::thread watchdog_thread_;
};

}  // namespace ppat::flow
