// Coordinator side of the distributed oracle fleet.
//
// DistributedEvalService is flow::EvalService's out-of-process sibling: the
// same batch-evaluation contract (flow::BatchEvaluator — records land at
// their batch index, run failure is a first-class outcome, never throws for
// one), but the tool runs execute in WORKER PROCESSES connected over a Unix
// socket instead of in-process threads. Both call the same
// flow::RunLifecycle for every retry, deadline, watchdog and stats decision,
// so the two are interchangeable under tuner::LiveCandidatePool:
//
//   * work-stealing dispatch: idle workers pull the next pending
//     configuration off a shared queue, so a slow run never blocks the
//     batch behind it;
//   * per-attempt license leasing through flow::LicenseBroker — via the
//     non-blocking try_acquire, because the coordinator frees its own
//     leases by processing worker results and must never sleep on the
//     broker;
//   * bounded retry with exponential backoff, deadlines measured from batch
//     submission (attempts == 0 marks "expired while queued"), and a
//     rolling-median watchdog that marks hung runs as PERMANENT kTimedOut
//     (the coordinator's cancel is disconnecting the worker);
//   * worker death is absorbed: the in-flight configuration is re-queued
//     (one retry), the dead connection is reaped, and the batch completes
//     on the surviving workers.
//
// On top of that, the coordinator adds the exactly-once reveal contract:
// every finalized outcome is appended to a journal::RevealLedger keyed by
// the candidate's content digest BEFORE the observer sees it. A SIGKILLed
// coordinator that resumes against the same ledger serves completed
// candidates from the recorded outcomes instead of re-dispatching them —
// a restart never double-spends a tool run; only work that was genuinely
// in flight (unrecorded) runs again.
//
// Threading: the coordinator is single-threaded by design — one poll loop
// owns the listening socket, every worker connection, dispatch, retry, the
// watchdog, and the ledger. Methods must be called from one thread; the
// RunObserver fires on that thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "flow/eval_service.hpp"
#include "flow/run_lifecycle.hpp"

namespace ppat::journal {
class RevealLedger;
}  // namespace ppat::journal

namespace ppat::dist {

/// The run policy shared with flow::EvalService (a worker death costs an
/// attempt like a failed result; a lease is held until the result or the
/// worker's death comes back), plus the fleet's transport settings.
struct DistributedOptions : flow::RunPolicy {
  /// Unix socket the coordinator binds and workers dial. Required.
  std::string socket_path;

  /// Poll-loop tick: bounds dispatch/retry/watchdog latency.
  std::chrono::milliseconds poll_interval{20};

  /// Epoch stamped into every handshake and heartbeat. Workers from a
  /// different incarnation are rejected at hello and disconnected on a
  /// stale heartbeat.
  std::uint64_t session_epoch = 1;

  /// Exactly-once reveal ledger path; empty disables the ledger (no
  /// crash-resume dedup, records are still correct for a single run).
  std::string ledger_path;

  /// How long evaluate_batch keeps queued work alive with ZERO connected
  /// workers before failing the remainder (covers the whole fleet dying,
  /// or a batch submitted before any worker dialed in).
  std::chrono::milliseconds no_worker_grace{10000};

  /// Per-connection receive timeout during the worker handshake.
  std::chrono::milliseconds handshake_timeout{5000};
};

/// The shared run counters plus the fleet's own.
struct DistributedStats : flow::EvalServiceStats {
  /// Outcomes served straight from the reveal ledger (no dispatch; not
  /// counted in the run counters above).
  std::size_t reveals_replayed = 0;
  std::size_t workers_connected = 0;
  std::size_t workers_rejected = 0;
  /// Connections lost while a run was in flight or idle.
  std::size_t worker_deaths = 0;
  std::size_t heartbeats = 0;
};

/// Batch evaluator over a fleet of worker processes. Binds the socket in
/// the constructor; workers may dial in at any time (including mid-batch —
/// a late worker starts stealing work immediately).
class DistributedEvalService final : public flow::BatchEvaluator {
 public:
  DistributedEvalService(flow::ParameterSpace space,
                         DistributedOptions options);
  ~DistributedEvalService() override;

  DistributedEvalService(const DistributedEvalService&) = delete;
  DistributedEvalService& operator=(const DistributedEvalService&) = delete;

  std::vector<flow::RunRecord> evaluate_batch(
      const std::vector<flow::Config>& configs,
      const RunObserver& observer) override;
  using flow::BatchEvaluator::evaluate_batch;

  const flow::ParameterSpace& space() const override { return space_; }
  const DistributedOptions& options() const { return options_; }
  const std::string& socket_path() const { return options_.socket_path; }
  std::uint64_t session_epoch() const { return options_.session_epoch; }

  /// Currently connected (handshaken) workers.
  std::size_t worker_count() const { return workers_.size(); }
  /// Services handshakes until at least `n` workers are connected or the
  /// timeout elapses. Returns whether the target was reached.
  bool wait_for_workers(std::size_t n, std::chrono::milliseconds timeout);

  /// fork/execs a worker binary pointed at this coordinator's socket and
  /// epoch (plus `extra_args`, e.g. the oracle selection). The child is
  /// SIGTERMed and reaped in the destructor; deaths before then surface as
  /// ordinary worker deaths in the poll loop.
  void spawn_local_worker(const std::string& worker_binary,
                          std::vector<std::string> extra_args = {});
  /// Child pids spawned via spawn_local_worker (still registered; a pid
  /// stays listed even after the child exits until the destructor reaps).
  const std::vector<pid_t>& spawned_pids() const { return spawned_; }

  DistributedStats stats() const;

 private:
  using clock = flow::RunLifecycle::clock;

  struct Worker {
    int fd = -1;
    bool busy = false;
    std::size_t job_index = 0;       ///< valid iff busy
    clock::time_point dispatch_t0;   ///< valid iff busy
    flow::LicenseBroker::Lease lease;
  };

  struct BatchState;

  /// One poll-loop tick shared by evaluate_batch and wait_for_workers:
  /// accepts + handshakes new workers, processes worker frames (results
  /// route into `batch` when non-null), reaps dead connections.
  void poll_once(std::chrono::milliseconds timeout, BatchState* batch);
  void accept_pending(BatchState* batch);
  void handle_worker_frame(std::size_t widx, BatchState* batch);
  void drop_worker(std::size_t widx, BatchState* batch,
                   const char* why);
  void dispatch_ready(BatchState& batch);
  void watchdog_sweep(BatchState& batch);
  /// Publishes the closed record at `idx`: ledger first, then observer.
  void finalize(BatchState& batch, std::size_t idx);
  /// A failed attempt at `idx`: queues the retry after its backoff, or
  /// finalizes the run when no attempt remains.
  void fail_attempt(BatchState& batch, std::size_t idx, std::string error);
  /// Closes every queued (pending or backing-off) run with `close` and
  /// finalizes it.
  void close_queued(BatchState& batch,
                    const std::function<void(flow::RunRecord&)>& close);

  flow::ParameterSpace space_;
  DistributedOptions options_;
  int listen_fd_ = -1;
  std::vector<Worker> workers_;
  std::vector<pid_t> spawned_;
  std::unique_ptr<journal::RevealLedger> ledger_;
  clock::time_point last_worker_seen_;
  flow::RunLifecycle lifecycle_;
  /// Fleet counters only; the run counters live in lifecycle_.
  DistributedStats stats_;
};

}  // namespace ppat::dist
