#include "server/session_manager.hpp"

#include <filesystem>
#include <utility>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "journal/journal.hpp"
#include "tuner/live_pool.hpp"

namespace ppat::server {
namespace fs = std::filesystem;

const char* session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kRunning:
      return "running";
    case SessionState::kCompleted:
      return "completed";
    case SessionState::kStopped:
      return "stopped";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

/// One hosted session. The manager holds it via shared_ptr so status
/// queries stay valid while (and after) the session thread runs.
struct SessionManager::Session {
  std::uint64_t id = 0;
  SessionConfig config;

  /// Per-session stop fan-in: a process signal (via the dispatcher), a
  /// request_stop, or a dropped client all land in the same flag the
  /// tuner's should_stop polls.
  std::unique_ptr<journal::ScopedSignalStop> signal_stop;
  std::atomic<bool> manual_stop{false};

  std::thread thread;
  std::once_flag join_once;

  std::atomic<SessionState> state{SessionState::kRunning};
  mutable std::mutex mutex;  ///< guards the mutable progress/result fields
  std::size_t rounds = 0;
  std::size_t runs = 0;
  std::vector<std::size_t> front;
  bool resumed = false;
  tuner::TuningResult result;
  std::string error;

  bool stop_requested() const {
    return manual_stop.load(std::memory_order_relaxed) ||
           (signal_stop != nullptr && signal_stop->stop_requested());
  }
  void request_stop() {
    manual_stop.store(true, std::memory_order_relaxed);
    if (signal_stop != nullptr) signal_stop->request_stop();
  }
};

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(options),
      broker_(std::make_shared<flow::LicenseBroker>(
          options.total_licenses == 0 ? 1 : options.total_licenses)) {
  if (options_.max_sessions == 0) options_.max_sessions = 1;
}

SessionManager::~SessionManager() {
  request_stop_all();
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard lock(mutex_);
    for (auto& [id, s] : sessions_) all.push_back(s);
  }
  for (auto& s : all) {
    std::call_once(s->join_once, [&] {
      if (s->thread.joinable()) s->thread.join();
    });
  }
}

std::uint64_t SessionManager::open(SessionConfig config) {
  if (!config.make_oracle) {
    throw std::invalid_argument("SessionConfig::make_oracle is required");
  }
  if (config.candidates.empty()) {
    throw std::invalid_argument("SessionConfig::candidates is empty");
  }
  if (config.objectives.empty()) {
    throw std::invalid_argument("SessionConfig::objectives is empty");
  }

  auto session = std::make_shared<Session>();
  session->config = std::move(config);
  {
    std::lock_guard lock(mutex_);
    std::size_t running = 0;
    for (const auto& [id, s] : sessions_) {
      if (s->state.load() == SessionState::kRunning) ++running;
    }
    if (running >= options_.max_sessions) {
      throw AdmissionError("session limit reached (" +
                           std::to_string(options_.max_sessions) +
                           " running); retry after one finishes");
    }
    session->id = next_id_++;
    if (options_.handle_signals) {
      session->signal_stop = std::make_unique<journal::ScopedSignalStop>();
    }
    sessions_.emplace(session->id, session);
  }

  session->thread = std::thread([this, session] { run_session(*session); });
  return session->id;
}

void SessionManager::run_session(Session& session) {
  SessionConfig& cfg = session.config;
  try {
    // The session's whole stack lives on this thread: oracle, eval
    // service (leasing from the shared broker under this session's tag),
    // live pool, journal, and a private worker pool installed for the
    // duration of the run.
    std::unique_ptr<flow::QorOracle> oracle = cfg.make_oracle();
    if (oracle == nullptr) {
      throw std::invalid_argument("make_oracle returned null");
    }
    flow::EvalServiceOptions eval_opts = cfg.eval;
    eval_opts.license_broker = broker_;
    eval_opts.session_tag = session.id;
    std::unique_ptr<flow::BatchEvaluator> service =
        cfg.make_evaluator
            ? cfg.make_evaluator(session.id, *oracle, cfg.space, eval_opts)
            : std::make_unique<flow::EvalService>(*oracle, cfg.space,
                                                  eval_opts);
    if (service == nullptr) {
      throw std::invalid_argument("make_evaluator returned null");
    }
    tuner::LiveCandidatePool pool(cfg.candidates, cfg.objectives, *service);

    std::unique_ptr<journal::RunJournal> jnl;
    if (!cfg.journal_dir.empty()) {
      bool has_journal = false;
      if (fs::exists(cfg.journal_dir)) {
        for (const auto& e : fs::directory_iterator(cfg.journal_dir)) {
          const auto ext = e.path().extension();
          if (ext == ".seg" || ext == ".open") has_journal = true;
        }
      }
      jnl = has_journal ? journal::RunJournal::open_resume(cfg.journal_dir)
                        : journal::RunJournal::create(cfg.journal_dir);
    }

    common::ThreadPool workers(
        cfg.worker_threads == 0 ? 1 : cfg.worker_threads);

    tuner::PPATunerOptions topt = cfg.tuner;
    topt.journal = jnl.get();
    topt.thread_pool = &workers;
    const auto user_should_stop = cfg.tuner.should_stop;
    topt.should_stop = [&session, user_should_stop] {
      return session.stop_requested() ||
             (user_should_stop && user_should_stop());
    };
    const auto user_on_round = cfg.tuner.on_round;
    topt.on_round = [this, &session,
                     user_on_round](const tuner::PPATunerProgress& p) {
      {
        std::lock_guard lock(session.mutex);
        session.rounds = p.round;
        session.runs = p.runs;
        session.front = p.pareto_ids;
      }
      if (session.config.on_update) {
        SessionUpdate update;
        update.session_id = session.id;
        update.round = p.round;
        update.runs = p.runs;
        update.front = p.pareto_ids;
        session.config.on_update(update);
      }
      if (user_on_round) user_on_round(p);
    };

    // Space-aware default: legacy spaces get exactly make_plain_gp_factory()
    // (construction-identical surrogates — session fingerprints unchanged);
    // constrained spaces get the mixed-space kernel.
    const tuner::SurrogateFactory factory =
        cfg.surrogates ? cfg.surrogates
                       : tuner::default_gp_factory_for(cfg.space);

    tuner::PPATunerDiagnostics diag;
    const tuner::TuningResult result =
        tuner::run_ppatuner(pool, factory, topt, &diag);

    {
      std::lock_guard lock(session.mutex);
      session.result = result;
      session.rounds = diag.rounds;
      session.runs = result.tool_runs;
      session.front = result.pareto_indices;
      session.resumed = diag.replayed_reveals > 0;
    }
    session.state.store(diag.stopped_early ? SessionState::kStopped
                                           : SessionState::kCompleted);
    if (session.config.on_update) {
      SessionUpdate update;
      update.session_id = session.id;
      update.round = diag.rounds;
      update.runs = result.tool_runs;
      update.front = result.pareto_indices;
      update.final = true;
      session.config.on_update(update);
    }
  } catch (const std::exception& e) {
    {
      std::lock_guard lock(session.mutex);
      session.error = e.what();
    }
    session.state.store(SessionState::kFailed);
    PPAT_WARN << "session " << session.id << " (" << cfg.name
              << ") failed: " << e.what();
    if (session.config.on_update) {
      SessionUpdate update;
      update.session_id = session.id;
      update.final = true;
      session.config.on_update(update);
    }
  }
}

SessionStatus SessionManager::status(std::uint64_t id) const {
  std::shared_ptr<Session> s;
  {
    std::lock_guard lock(mutex_);
    s = sessions_.at(id);
  }
  SessionStatus out;
  out.id = id;
  out.state = s->state.load();
  out.name = s->config.name;
  std::lock_guard lock(s->mutex);
  out.rounds = s->rounds;
  out.runs = s->runs;
  out.front_size = s->front.size();
  out.resumed = s->resumed;
  out.error = s->error;
  return out;
}

std::vector<std::size_t> SessionManager::front(std::uint64_t id) const {
  std::shared_ptr<Session> s;
  {
    std::lock_guard lock(mutex_);
    s = sessions_.at(id);
  }
  std::lock_guard lock(s->mutex);
  return s->front;
}

tuner::TuningResult SessionManager::wait(std::uint64_t id) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard lock(mutex_);
    s = sessions_.at(id);
  }
  std::call_once(s->join_once, [&] {
    if (s->thread.joinable()) s->thread.join();
  });
  if (s->state.load() == SessionState::kFailed) {
    std::lock_guard lock(s->mutex);
    throw std::runtime_error("session " + std::to_string(id) +
                             " failed: " + s->error);
  }
  std::lock_guard lock(s->mutex);
  return s->result;
}

void SessionManager::request_stop(std::uint64_t id) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard lock(mutex_);
    s = sessions_.at(id);
  }
  s->request_stop();
}

void SessionManager::request_stop_all() {
  std::lock_guard lock(mutex_);
  for (auto& [id, s] : sessions_) s->request_stop();
}

std::size_t SessionManager::active() const {
  std::lock_guard lock(mutex_);
  std::size_t running = 0;
  for (const auto& [id, s] : sessions_) {
    if (s->state.load() == SessionState::kRunning) ++running;
  }
  return running;
}

}  // namespace ppat::server
