#include "flow/run_lifecycle.hpp"

#include <algorithm>

namespace ppat::flow {

RunLifecycle::RunLifecycle(RunPolicy policy) : policy_(std::move(policy)) {
  if (policy_.max_attempts == 0) policy_.max_attempts = 1;
}

std::chrono::milliseconds RunLifecycle::backoff(std::size_t retry) const {
  if (retry == 0) return std::chrono::milliseconds(0);
  return policy_.retry_backoff * (std::int64_t{1} << (retry - 1));
}

bool RunLifecycle::past_deadline(clock::time_point batch_t0,
                                 clock::time_point now) const {
  return policy_.run_deadline.count() > 0 &&
         now - batch_t0 > policy_.run_deadline;
}

void RunLifecycle::expire(RunRecord& rec) {
  close(rec, RunStatus::kTimedOut,
        rec.attempts == 0 ? "deadline expired while queued"
                          : "run exceeded deadline");
}

void RunLifecycle::succeed(RunRecord& rec, const QoR& qor, double run_ms,
                           clock::time_point batch_t0,
                           clock::time_point now) {
  // Post-hoc classification: a result that arrives past the deadline is
  // discarded, not retried — any retry would finish even further past it.
  if (past_deadline(batch_t0, now)) {
    expire(rec);
    return;
  }
  rec.qor = qor;
  {
    std::lock_guard lock(mutex_);
    if (recent_ok_ms_.size() < kWatchdogWindow) {
      recent_ok_ms_.push_back(run_ms);
    } else {
      recent_ok_ms_[recent_pos_] = run_ms;
      recent_pos_ = (recent_pos_ + 1) % kWatchdogWindow;
    }
  }
  close(rec, RunStatus::kOk, {});
}

bool RunLifecycle::fail_attempt(RunRecord& rec, std::string error) {
  if (rec.attempts < policy_.max_attempts) {
    rec.status = RunStatus::kFailed;
    rec.error = std::move(error);
    return true;
  }
  close(rec, RunStatus::kFailed, std::move(error));
  return false;
}

void RunLifecycle::fail(RunRecord& rec, std::string error) {
  close(rec, RunStatus::kFailed, std::move(error));
}

void RunLifecycle::cancel_hung(RunRecord& rec) {
  {
    std::lock_guard lock(mutex_);
    ++stats_.runs_watchdog_cancelled;
  }
  close(rec, RunStatus::kTimedOut,
        "cancelled by watchdog (exceeded hard multiple of rolling median run "
        "time)");
}

double RunLifecycle::watchdog_threshold_ms() const {
  std::vector<double> window;
  {
    std::lock_guard lock(mutex_);
    if (policy_.watchdog_multiple <= 0.0 || recent_ok_ms_.empty() ||
        recent_ok_ms_.size() < policy_.watchdog_min_samples) {
      return 0.0;
    }
    window = recent_ok_ms_;
  }
  const std::size_t mid = window.size() / 2;
  std::nth_element(window.begin(), window.begin() + mid, window.end());
  return std::max(static_cast<double>(policy_.watchdog_floor.count()),
                  policy_.watchdog_multiple * window[mid]);
}

void RunLifecycle::count_batch() {
  std::lock_guard lock(mutex_);
  ++stats_.batches;
}

EvalServiceStats RunLifecycle::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void RunLifecycle::close(RunRecord& rec, RunStatus status,
                         std::string error) {
  rec.status = status;
  rec.error = std::move(error);
  std::lock_guard lock(mutex_);
  stats_.attempts += rec.attempts;
  stats_.retries += rec.retries();
  switch (status) {
    case RunStatus::kOk:
      ++stats_.runs_ok;
      break;
    case RunStatus::kFailed:
      ++stats_.runs_failed;
      break;
    case RunStatus::kTimedOut:
      ++stats_.runs_timed_out;
      break;
  }
}

}  // namespace ppat::flow
