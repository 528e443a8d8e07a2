// Implementation of the versioned C ABI (ppatuner_abi.h).
//
// The ABI inverts control — the embedder drives evaluations — while
// run_ppatuner expects a pool it can ask for reveals. The adapter between
// them is BridgePool: the tuner loop runs on an internal thread, and each
// reveal_batch publishes its candidate indices to a queue served by
// ppat_get_candidates, then blocks until ppat_set_result has answered all
// of them (or the session is shut down, which fails the pending reveals so
// the loop can unwind). Repeat reveals are served from the outcome cache,
// preserving the CandidatePool run-accounting contract.
#include "server/ppatuner_abi.h"

#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "tuner/ppatuner.hpp"
#include "tuner/problem.hpp"
#include "tuner/surrogate.hpp"

namespace {

using ppat::tuner::CandidatePool;

/// CandidatePool whose reveals are answered by an external caller through
/// the C ABI. All members are guarded by `mutex`.
class BridgePool final : public CandidatePool {
 public:
  BridgePool(std::vector<ppat::linalg::Vector> encoded,
             std::size_t num_objectives)
      : encoded_(std::move(encoded)),
        objectives_(num_objectives),
        status_(encoded_.size(), Status::kIdle),
        cache_(encoded_.size()) {
    std::iota(objectives_.begin(), objectives_.end(), std::size_t{0});
  }

  std::size_t size() const override { return encoded_.size(); }
  std::size_t num_objectives() const override { return objectives_.size(); }
  const std::vector<ppat::linalg::Vector>& encoded() const override {
    return encoded_;
  }
  const std::vector<std::size_t>& objectives() const override {
    return objectives_;
  }

  // Tuner side: publish unanswered indices, block until the embedder has
  // answered every one of them (ppat_set_result) or the session stops, then
  // report each position to `on_outcome` outside the lock.
  std::vector<RevealOutcome> reveal_batch(
      const std::vector<std::size_t>& indices,
      const RevealObserver& on_outcome = {}) override {
    std::unique_lock lock(mutex_);
    std::size_t unresolved = 0;
    for (std::size_t i : indices) {
      if (status_[i] == Status::kIdle) {
        status_[i] = Status::kQueued;
        queue_.push_back(i);
        ++unresolved;
      } else if (status_[i] != Status::kResolved) {
        ++unresolved;  // already in flight from an earlier (repeat) request
      }
    }
    if (unresolved > 0) client_cv_.notify_all();
    tuner_cv_.wait(lock, [&] {
      if (stopped_) return true;
      for (std::size_t i : indices) {
        if (status_[i] != Status::kResolved) return false;
      }
      return true;
    });

    std::vector<RevealOutcome> out(indices.size());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const std::size_t i = indices[k];
      if (status_[i] == Status::kResolved) {
        out[k] = cache_[i];
      } else {
        out[k].ok = false;
        out[k].error = "session shut down before the result arrived";
        out[k].attempts = 0;
        // Leave the candidate resolved-failed so a repeat reveal during
        // loop unwinding does not block again.
        status_[i] = Status::kResolved;
        cache_[i] = out[k];
      }
    }
    lock.unlock();
    if (on_outcome) {
      for (std::size_t k = 0; k < out.size(); ++k) on_outcome(k, out[k]);
    }
    return out;
  }

  bool is_revealed(std::size_t i) const override {
    std::lock_guard lock(mutex_);
    return status_[i] == Status::kResolved && cache_[i].ok;
  }
  std::size_t runs() const override {
    std::lock_guard lock(mutex_);
    return runs_;
  }
  std::size_t failed_evaluations() const override {
    std::lock_guard lock(mutex_);
    return failed_;
  }

  // Embedder side.

  /// Blocks until work is queued, the tuner finished, or the session
  /// stopped. Returns false for "no more work ever" (done/stopped).
  bool fetch(std::uint64_t* indices, std::uint64_t capacity,
             std::uint64_t* out_count) {
    std::unique_lock lock(mutex_);
    client_cv_.wait(lock, [&] { return !queue_.empty() || done_ || stopped_; });
    std::uint64_t n = 0;
    while (n < capacity && !queue_.empty()) {
      const std::size_t i = queue_.front();
      queue_.pop_front();
      status_[i] = Status::kHandedOut;
      indices[n++] = static_cast<std::uint64_t>(i);
    }
    *out_count = n;
    return n > 0;
  }

  /// Stores one answer. Returns false when `index` has no pending request.
  bool resolve(std::size_t index, const double* objectives_in, bool ok) {
    std::lock_guard lock(mutex_);
    if (index >= status_.size()) return false;
    if (status_[index] != Status::kQueued &&
        status_[index] != Status::kHandedOut) {
      return false;
    }
    if (status_[index] == Status::kQueued) {
      // Answered before being fetched (embedder knew the value already);
      // drop it from the hand-out queue.
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == index) {
          queue_.erase(it);
          break;
        }
      }
    }
    RevealOutcome& outcome = cache_[index];
    outcome.ok = ok;
    if (ok) {
      outcome.value.assign(objectives_in, objectives_in + objectives_.size());
      ++runs_;
    } else {
      outcome.error = "tool run reported failed by the embedder";
      ++failed_;
    }
    status_[index] = Status::kResolved;
    tuner_cv_.notify_all();
    return true;
  }

  /// Tuner loop finished: wake any blocked ppat_get_candidates with DONE.
  void mark_done() {
    std::lock_guard lock(mutex_);
    done_ = true;
    client_cv_.notify_all();
  }

  /// Session shutdown: fail pending reveals and wake everyone.
  void stop() {
    std::lock_guard lock(mutex_);
    stopped_ = true;
    tuner_cv_.notify_all();
    client_cv_.notify_all();
  }

  bool stopped() const {
    std::lock_guard lock(mutex_);
    return stopped_;
  }

 private:
  enum class Status : unsigned char {
    kIdle = 0,       ///< never requested
    kQueued,         ///< requested by the tuner, not yet fetched
    kHandedOut,      ///< fetched by the embedder, awaiting its result
    kResolved,       ///< outcome cached (success or permanent failure)
  };

  const std::vector<ppat::linalg::Vector> encoded_;
  std::vector<std::size_t> objectives_;

  mutable std::mutex mutex_;
  std::condition_variable tuner_cv_;   ///< reveal_batch waits here
  std::condition_variable client_cv_;  ///< ppat_get_candidates waits here
  std::vector<Status> status_;
  std::vector<RevealOutcome> cache_;
  std::deque<std::size_t> queue_;
  std::size_t runs_ = 0;
  std::size_t failed_ = 0;
  bool done_ = false;
  bool stopped_ = false;
};

}  // namespace

// The opaque handle: the bridge pool plus the tuner thread driving it.
struct ppat_session {
  std::unique_ptr<BridgePool> pool;
  std::thread tuner_thread;

  std::mutex mutex;
  bool finished = false;  ///< tuner thread ran to completion (any outcome)
  bool failed = false;
  std::string error;
  std::vector<std::size_t> front;  ///< live per-round, then final
};

namespace {

void run_tuner_loop(ppat_session* s, ppat::tuner::PPATunerOptions topt,
                    std::size_t num_threads,
                    ppat::tuner::SurrogateFactory factory) {
  try {
    ppat::common::ThreadPool workers(num_threads);
    topt.thread_pool = &workers;
    topt.should_stop = [s] { return s->pool->stopped(); };
    topt.on_round = [s](const ppat::tuner::PPATunerProgress& p) {
      std::lock_guard lock(s->mutex);
      s->front = p.pareto_ids;
    };
    const ppat::tuner::TuningResult result =
        ppat::tuner::run_ppatuner(*s->pool, factory, topt);
    std::lock_guard lock(s->mutex);
    s->front = result.pareto_indices;
    s->finished = true;
  } catch (const std::exception& e) {
    std::lock_guard lock(s->mutex);
    s->failed = true;
    s->error = e.what();
    s->finished = true;
  }
  s->pool->mark_done();
}

}  // namespace

extern "C" {

uint32_t ppat_abi_version(void) {
  return (PPAT_ABI_VERSION_MAJOR << 16) | PPAT_ABI_VERSION_MINOR;
}

const char* ppat_status_name(ppat_status status) {
  switch (status) {
    case PPAT_OK:
      return "PPAT_OK";
    case PPAT_DONE:
      return "PPAT_DONE";
    case PPAT_ERROR_INVALID:
      return "PPAT_ERROR_INVALID";
    case PPAT_ERROR_VERSION:
      return "PPAT_ERROR_VERSION";
    case PPAT_ERROR_CAPACITY:
      return "PPAT_ERROR_CAPACITY";
    case PPAT_ERROR_INTERNAL:
      return "PPAT_ERROR_INTERNAL";
  }
  return "PPAT_<unknown>";
}

ppat_status ppat_init(const ppat_options_v1* options, const double* candidates,
                      uint64_t num_candidates, uint64_t dim,
                      uint64_t num_objectives, ppat_session** out_session) {
  if (options == nullptr || candidates == nullptr || out_session == nullptr) {
    return PPAT_ERROR_INVALID;
  }
  *out_session = nullptr;
  // Forward-compat contract: the caller's struct must start with the two
  // version fields and be at least the 1.0 prefix we know how to read.
  // categorical_mask was APPENDED in minor 1.1, so 1.0 embedders report a
  // struct_size that stops right before it — still accepted, field = 0.
  constexpr uint64_t kOptionsV10Size =
      offsetof(ppat_options_v1, categorical_mask);
  if (options->struct_size < kOptionsV10Size ||
      options->abi_version != PPAT_ABI_VERSION_MAJOR) {
    return PPAT_ERROR_VERSION;
  }
  if (num_candidates == 0 || dim == 0 || num_objectives == 0 ||
      num_objectives > PPAT_MAX_OBJECTIVES) {
    return PPAT_ERROR_INVALID;
  }
  for (uint64_t i = 0; i < num_candidates * dim; ++i) {
    if (!std::isfinite(candidates[i])) return PPAT_ERROR_INVALID;
  }

  std::vector<ppat::linalg::Vector> encoded(num_candidates);
  for (uint64_t i = 0; i < num_candidates; ++i) {
    encoded[i].assign(candidates + i * dim, candidates + (i + 1) * dim);
  }

  ppat::tuner::PPATunerOptions topt;
  if (options->seed != 0) topt.seed = options->seed;
  if (options->tau > 0.0) topt.tau = options->tau;
  if (options->delta_rel > 0.0) topt.delta_rel = options->delta_rel;
  if (options->batch_size != 0) {
    topt.batch_size = static_cast<std::size_t>(options->batch_size);
  }
  if (options->max_runs != 0) {
    topt.max_runs = static_cast<std::size_t>(options->max_runs);
  }
  if (options->max_rounds != 0) {
    topt.max_rounds = static_cast<std::size_t>(options->max_rounds);
  }
  const std::size_t num_threads =
      options->num_threads == 0 ? 1
                                : static_cast<std::size_t>(options->num_threads);

  // Minor-1.1 tail field (0 for every 1.0 caller): nonzero selects the
  // mixed-space kernel over the marked categorical dimensions.
  uint64_t categorical_mask = 0;
  if (options->struct_size >= kOptionsV10Size + sizeof(uint64_t)) {
    categorical_mask = options->categorical_mask;
  }
  ppat::tuner::SurrogateFactory factory;
  if (categorical_mask == 0) {
    factory = ppat::tuner::make_plain_gp_factory();
  } else {
    if (dim > 64 || (dim < 64 && (categorical_mask >> dim) != 0)) {
      return PPAT_ERROR_INVALID;
    }
    std::vector<std::uint8_t> categorical(static_cast<std::size_t>(dim), 0);
    for (uint64_t d = 0; d < dim; ++d) {
      categorical[d] = (categorical_mask >> d) & 1u;
    }
    auto proto = std::make_shared<ppat::gp::MixedSpaceKernel>(
        std::move(categorical));
    factory = [proto](std::size_t) -> std::unique_ptr<ppat::tuner::Surrogate> {
      return std::make_unique<ppat::tuner::PlainGpSurrogate>(proto->clone());
    };
  }

  auto session = std::make_unique<ppat_session>();
  session->pool = std::make_unique<BridgePool>(
      std::move(encoded), static_cast<std::size_t>(num_objectives));
  ppat_session* raw = session.release();
  raw->tuner_thread = std::thread([raw, topt, num_threads, factory] {
    run_tuner_loop(raw, topt, num_threads, factory);
  });
  *out_session = raw;
  return PPAT_OK;
}

ppat_status ppat_get_candidates(ppat_session* session, uint64_t* indices,
                                uint64_t capacity, uint64_t* out_count) {
  if (session == nullptr || indices == nullptr || out_count == nullptr ||
      capacity == 0) {
    return PPAT_ERROR_INVALID;
  }
  *out_count = 0;
  if (session->pool->fetch(indices, capacity, out_count)) return PPAT_OK;
  std::lock_guard lock(session->mutex);
  return session->failed ? PPAT_ERROR_INTERNAL : PPAT_DONE;
}

ppat_status ppat_set_result(ppat_session* session, uint64_t index,
                            const double* objectives, int ok) {
  if (session == nullptr) return PPAT_ERROR_INVALID;
  if (ok != 0) {
    if (objectives == nullptr) return PPAT_ERROR_INVALID;
    for (std::size_t k = 0; k < session->pool->num_objectives(); ++k) {
      if (!std::isfinite(objectives[k])) return PPAT_ERROR_INVALID;
    }
  }
  if (!session->pool->resolve(static_cast<std::size_t>(index), objectives,
                              ok != 0)) {
    return PPAT_ERROR_INVALID;
  }
  return PPAT_OK;
}

ppat_status ppat_front(ppat_session* session, uint64_t* indices,
                       uint64_t capacity, uint64_t* out_count) {
  if (session == nullptr || indices == nullptr || out_count == nullptr) {
    return PPAT_ERROR_INVALID;
  }
  std::lock_guard lock(session->mutex);
  *out_count = static_cast<uint64_t>(session->front.size());
  if (session->front.size() > capacity) return PPAT_ERROR_CAPACITY;
  for (std::size_t k = 0; k < session->front.size(); ++k) {
    indices[k] = static_cast<uint64_t>(session->front[k]);
  }
  return PPAT_OK;
}

ppat_status ppat_runs(ppat_session* session, uint64_t* out_runs) {
  if (session == nullptr || out_runs == nullptr) return PPAT_ERROR_INVALID;
  *out_runs = static_cast<uint64_t>(session->pool->runs());
  return PPAT_OK;
}

const char* ppat_last_error(ppat_session* session) {
  if (session == nullptr) return "";
  std::lock_guard lock(session->mutex);
  return session->error.c_str();
}

ppat_status ppat_shutdown(ppat_session* session) {
  if (session == nullptr) return PPAT_ERROR_INVALID;
  session->pool->stop();
  if (session->tuner_thread.joinable()) session->tuner_thread.join();
  delete session;
  return PPAT_OK;
}

}  // extern "C"
