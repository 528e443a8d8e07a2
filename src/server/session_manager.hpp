// Multi-tenant tuning server core: N concurrent tuning sessions in one
// process, each owning its full stack — a tuner::PPATuner loop over a
// LiveCandidatePool, a flow::EvalService on the session's oracle, an
// optional per-session journal::RunJournal (crash-safe resume per session),
// and a private common::ThreadPool for surrogate maintenance.
//
// What makes concurrent sessions SAFE here (and was process-global before):
//   * thread pools — each session's run installs its own pool via
//     PPATunerOptions::thread_pool / common::ScopedPool; the global
//     singleton is never sized or touched by a managed session;
//   * signals — every session registers a journal::ScopedSignalStop with
//     the process-level dispatcher, so one SIGINT/SIGTERM gracefully drains
//     ALL sessions (each finishes its in-flight batch, commits its journal,
//     and returns), instead of the last-installed handler winning;
//   * licenses — all sessions lease tool licenses from one shared
//     flow::LicenseBroker under fair scheduling, instead of each service
//     assuming it owns the whole pool.
//
// And what keeps them REPRODUCIBLE: per-session RNG streams (the tuner
// seeds its own common::Rng from the session's options), order-insensitive
// EvalService records, and bit-stable parallel partitions mean a session's
// result is bitwise-identical whether it ran alone or next to seven
// neighbors — the property test_server_sessions pins down.
//
// Admission control: at most max_sessions run concurrently (open() throws
// AdmissionError beyond that) and at most total_licenses tool runs are in
// flight process-wide.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flow/eval_service.hpp"
#include "flow/license_broker.hpp"
#include "tuner/ppatuner.hpp"

namespace ppat::journal {
class ScopedSignalStop;
}  // namespace ppat::journal

namespace ppat::server {

/// open() refused because the server is at its concurrent-session limit.
class AdmissionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class SessionState : unsigned char {
  kRunning = 0,
  kCompleted = 1,  ///< loop ran to its budget / classification end
  kStopped = 2,    ///< graceful stop (signal, request_stop, client drop)
  kFailed = 3,     ///< the run threw; see SessionStatus::error
};
const char* session_state_name(SessionState state);

/// One streamed progress update (per round, plus a final one).
struct SessionUpdate {
  std::uint64_t session_id = 0;
  std::size_t round = 0;
  std::size_t runs = 0;
  /// Candidates currently classified Pareto (paper Eq. (12)); on the final
  /// update this is the run's full predicted Pareto set.
  std::vector<std::size_t> front;
  bool final = false;
};

/// Everything a session needs to run. The manager owns a copy.
struct SessionConfig {
  std::string name;  ///< diagnostics only
  /// Parameter space the candidates (and the oracle) live in.
  flow::ParameterSpace space;
  /// The candidate pool this session tunes over.
  std::vector<flow::Config> candidates;
  /// QoR metric indices forming the objective vector.
  std::vector<std::size_t> objectives;
  /// Builds the session's oracle (invoked on the session thread; the
  /// returned oracle is owned by the session). Required.
  std::function<std::unique_ptr<flow::QorOracle>()> make_oracle;
  /// Surrogate factory; empty = plain (non-transfer) GPs.
  tuner::SurrogateFactory surrogates;
  /// Tuner options. journal / thread_pool / should_stop are managed per
  /// session; on_round (if set) still fires after the manager's own
  /// bookkeeping.
  tuner::PPATunerOptions tuner;
  /// Evaluation options. license_broker / session_tag are overridden with
  /// the manager's shared broker and this session's id; `licenses` remains
  /// the session's own in-flight cap.
  flow::EvalServiceOptions eval;
  /// Optional evaluator factory (invoked on the session thread). When set,
  /// the session's pool runs over the returned flow::BatchEvaluator instead
  /// of an in-process EvalService — this is how `ppatuner_serve --workers`
  /// swaps in a dist::DistributedEvalService without the server library
  /// depending on ppat_dist. `eval` arrives with the shared broker and this
  /// session's tag already filled in. The returned evaluator must evaluate
  /// `oracle`'s semantics over `space` (worker processes host their own
  /// oracle instances; `oracle` itself may go unused). Empty = EvalService.
  std::function<std::unique_ptr<flow::BatchEvaluator>(
      std::uint64_t session_id, flow::QorOracle& oracle,
      const flow::ParameterSpace& space,
      const flow::EvalServiceOptions& eval)>
      make_evaluator;
  /// Journal directory: empty = no journal; existing journal = resume,
  /// fresh directory = record. Per session, so each session crash-resumes
  /// independently.
  std::string journal_dir;
  /// Per-session surrogate/linear-algebra threads (>=1).
  std::size_t worker_threads = 1;
  /// Streamed per-round + final updates, invoked from the session thread.
  std::function<void(const SessionUpdate&)> on_update;
};

struct SessionStatus {
  std::uint64_t id = 0;
  SessionState state = SessionState::kRunning;
  std::string name;
  std::size_t rounds = 0;
  std::size_t runs = 0;
  std::size_t front_size = 0;
  bool resumed = false;     ///< journal replay served at least one reveal
  std::string error;        ///< non-empty iff state == kFailed
};

struct SessionManagerOptions {
  /// Concurrent-session admission limit.
  std::size_t max_sessions = 8;
  /// Capacity of the shared LicenseBroker (process-wide in-flight evals).
  std::size_t total_licenses = 4;
  /// Register each session with the process signal dispatcher so
  /// SIGINT/SIGTERM drains every session gracefully. Off for embeddings
  /// that must not have signal handlers installed (sessions then stop only
  /// via request_stop / request_stop_all).
  bool handle_signals = true;
};

/// Hosts tuning sessions on dedicated threads. All methods thread-safe.
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});
  /// Requests a stop on every live session and joins them.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admits and starts a session; returns its id. Throws AdmissionError at
  /// the max_sessions limit and std::invalid_argument for an unusable
  /// config (no oracle factory, empty pool).
  std::uint64_t open(SessionConfig config);

  /// Snapshot of one session's progress. Throws std::out_of_range for an
  /// unknown id.
  SessionStatus status(std::uint64_t id) const;
  /// Current classified-Pareto front (final result once finished).
  std::vector<std::size_t> front(std::uint64_t id) const;

  /// Blocks until the session finishes and returns its result. A failed
  /// session rethrows its error as std::runtime_error.
  tuner::TuningResult wait(std::uint64_t id);

  /// Graceful per-session stop: the loop finishes its in-flight batch,
  /// commits its journal, and finalizes (same path as a signal).
  void request_stop(std::uint64_t id);
  void request_stop_all();

  /// Sessions currently running (admission-relevant count).
  std::size_t active() const;
  const SessionManagerOptions& options() const { return options_; }
  const std::shared_ptr<flow::LicenseBroker>& broker() const {
    return broker_;
  }

 private:
  struct Session;

  void run_session(Session& session);

  SessionManagerOptions options_;
  std::shared_ptr<flow::LicenseBroker> broker_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
};

}  // namespace ppat::server
