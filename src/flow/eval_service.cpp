#include "flow/eval_service.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "common/log.hpp"
#include "common/parallel.hpp"

namespace ppat::flow {

EvalService::EvalService(QorOracle& oracle, ParameterSpace space,
                         EvalServiceOptions options)
    : oracle_(oracle),
      space_(std::move(space)),
      options_(std::move(options)),
      lifecycle_(options_) {
  if (options_.licenses == 0) options_.licenses = 1;
  if (options_.licenses > 1) {
    pool_ = std::make_unique<common::ThreadPool>(options_.licenses);
  }
  if (options_.watchdog_multiple > 0.0) {
    if (options_.watchdog_poll.count() <= 0) {
      options_.watchdog_poll = std::chrono::milliseconds(50);
    }
    cancellable_ = dynamic_cast<CancellableOracle*>(&oracle_);
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
}

EvalService::~EvalService() {
  if (watchdog_thread_.joinable()) {
    {
      std::lock_guard lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_thread_.join();
  }
}

void EvalService::watchdog_loop() {
  std::unique_lock lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, options_.watchdog_poll);
    if (watchdog_stop_) break;
    const double threshold_ms = lifecycle_.watchdog_threshold_ms();
    if (threshold_ms <= 0.0) continue;
    const auto now = clock::now();
    for (auto& [id, flight] : in_flight_) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(now - flight.start)
              .count();
      if (elapsed_ms > threshold_ms && !flight.token->cancelled()) {
        PPAT_WARN << "watchdog: cancelling hung run after " << elapsed_ms
                  << " ms (threshold " << threshold_ms << " ms)";
        flight.token->request_cancel();
      }
    }
  }
}

RunRecord EvalService::run_one(const Config& config,
                               clock::time_point batch_t0) {
  RunRecord rec;
  const auto run_t0 = clock::now();
  for (;;) {
    // A retry waits out its backoff first; the deadline is then checked at
    // dispatch, so a backoff that crosses the deadline spends no tool run.
    std::this_thread::sleep_for(lifecycle_.backoff(rec.attempts));
    if (lifecycle_.past_deadline(batch_t0, clock::now())) {
      lifecycle_.expire(rec);
      break;
    }
    // Lease one shared license for this attempt. Scoped to the attempt, so
    // RAII releases it on every exit: normal classification, an oracle
    // exception, a deadline timeout, a watchdog cancellation, and the
    // backoff sleep before a retry all return the license first.
    LicenseBroker::Lease lease;
    if (options_.license_broker != nullptr) {
      lease = options_.license_broker->acquire(options_.session_tag);
      // The wait for a license counts toward the deadline, same as the
      // worker queue.
      if (lifecycle_.past_deadline(batch_t0, clock::now())) {
        lifecycle_.expire(rec);
        break;
      }
    }
    ++rec.attempts;
    // Register this attempt with the watchdog (no-op when disabled).
    CancelToken token;
    std::uint64_t flight_id = 0;
    const bool watched = watchdog_thread_.joinable();
    const auto t0 = clock::now();
    if (watched) {
      std::lock_guard lock(watchdog_mutex_);
      flight_id = next_flight_id_++;
      in_flight_.emplace(flight_id, InFlight{t0, &token});
    }
    std::optional<QoR> qor;
    std::string error;
    try {
      qor = cancellable_ != nullptr
                ? cancellable_->evaluate_with_cancel(space_, config, token)
                : oracle_.evaluate(space_, config);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const auto t1 = clock::now();
    if (watched) {
      std::lock_guard lock(watchdog_mutex_);
      in_flight_.erase(flight_id);
    }
    // A watchdog cancellation wins over whatever the oracle returned: the
    // run is known-hung and its result is not trusted. Callers journal the
    // kTimedOut record so a resumed run never re-selects this
    // configuration.
    if (token.cancelled()) {
      lifecycle_.cancel_hung(rec);
      break;
    }
    if (qor.has_value()) {
      lifecycle_.succeed(
          rec, *qor,
          std::chrono::duration<double, std::milli>(t1 - t0).count(),
          batch_t0, t1);
      break;
    }
    if (!lifecycle_.fail_attempt(rec, std::move(error))) break;
  }
  rec.elapsed_ms =
      std::chrono::duration<double, std::milli>(clock::now() - run_t0)
          .count();
  return rec;
}

std::vector<RunRecord> EvalService::evaluate_batch(
    const std::vector<Config>& configs, const RunObserver& observer) {
  std::vector<RunRecord> records(configs.size());
  if (configs.empty()) return records;

  const auto batch_t0 = clock::now();
  auto finish_one = [&](std::size_t i) {
    records[i] = run_one(configs[i], batch_t0);
    if (observer) observer(i, records[i]);
  };
  const std::size_t workers =
      std::min(options_.licenses, configs.size());
  if (workers <= 1 || pool_ == nullptr) {
    for (std::size_t i = 0; i < configs.size(); ++i) finish_one(i);
  } else {
    // Work-stealing over a shared cursor: each license pulls the next
    // pending configuration, so a slow run never blocks the rest of the
    // batch behind it. Records land at their batch index — the result is
    // independent of completion order and therefore of the license count.
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < configs.size();) {
        finish_one(i);
      }
    };
    common::TaskGroup group(pool_.get());
    // licenses - 1 pool workers plus the calling thread.
    for (std::size_t t = 0; t + 1 < workers; ++t) group.run(drain);
    drain();
    group.wait();
  }
  lifecycle_.count_batch();
  return records;
}

}  // namespace ppat::flow
