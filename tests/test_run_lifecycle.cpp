// flow::RunLifecycle: the retry, deadline, watchdog and stats policy that
// flow::EvalService and dist::DistributedEvalService share. The evaluators'
// own suites check the policy end to end; this suite pins each rule on its
// own, with no tool runs and no clocks beyond explicit time points.
// Suite name "RunLifecycle" is selected by the TSan CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "flow/run_lifecycle.hpp"

namespace ppat::flow {
namespace {

using std::chrono::milliseconds;
using clock = RunLifecycle::clock;

QoR some_qor() {
  QoR qor;
  qor.area_um2 = 1.0;
  qor.power_mw = 2.0;
  qor.delay_ns = 3.0;
  return qor;
}

/// Feeds `n` successful runs of `ms` each into the watchdog window.
void succeed_n(RunLifecycle& lifecycle, std::size_t n, double ms) {
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    RunRecord rec;
    rec.attempts = 1;
    lifecycle.succeed(rec, some_qor(), ms, t0, t0);
  }
}

TEST(RunLifecycle, BackoffDoublesPerRetry) {
  RunPolicy policy;
  policy.retry_backoff = milliseconds(25);
  const RunLifecycle lifecycle(policy);
  EXPECT_EQ(lifecycle.backoff(0), milliseconds(0));  // first attempt
  EXPECT_EQ(lifecycle.backoff(1), milliseconds(25));
  EXPECT_EQ(lifecycle.backoff(2), milliseconds(50));
  EXPECT_EQ(lifecycle.backoff(3), milliseconds(100));
  EXPECT_EQ(lifecycle.backoff(4), milliseconds(200));
}

TEST(RunLifecycle, FailedAttemptRetriesWhileAttemptsRemain) {
  RunPolicy policy;
  policy.max_attempts = 3;
  RunLifecycle lifecycle(policy);
  RunRecord rec;
  rec.attempts = 1;
  EXPECT_TRUE(lifecycle.fail_attempt(rec, "first"));
  rec.attempts = 2;
  EXPECT_TRUE(lifecycle.fail_attempt(rec, "second"));
  EXPECT_EQ(lifecycle.stats().runs_failed, 0u);  // still open
  rec.attempts = 3;
  EXPECT_FALSE(lifecycle.fail_attempt(rec, "third"));
  EXPECT_EQ(rec.status, RunStatus::kFailed);
  EXPECT_EQ(rec.error, "third");

  const EvalServiceStats stats = lifecycle.stats();
  EXPECT_EQ(stats.runs_failed, 1u);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
}

TEST(RunLifecycle, ZeroMaxAttemptsMeansOne) {
  RunPolicy policy;
  policy.max_attempts = 0;
  RunLifecycle lifecycle(policy);
  RunRecord rec;
  rec.attempts = 1;
  EXPECT_FALSE(lifecycle.fail_attempt(rec, "no retry"));
}

TEST(RunLifecycle, DeadlineIsMeasuredFromBatchSubmission) {
  RunPolicy policy;
  const auto t0 = clock::now();
  const auto late = t0 + milliseconds(1000);
  EXPECT_FALSE(RunLifecycle(policy).past_deadline(t0, late))
      << "zero disables the deadline";
  policy.run_deadline = milliseconds(100);
  const RunLifecycle lifecycle(policy);
  EXPECT_FALSE(lifecycle.past_deadline(t0, t0 + milliseconds(100)));
  EXPECT_TRUE(lifecycle.past_deadline(t0, t0 + milliseconds(101)));
}

TEST(RunLifecycle, DeadlineErrorDependsOnWhetherTheRunDispatched) {
  RunLifecycle lifecycle(RunPolicy{});
  RunRecord queued;
  lifecycle.expire(queued);
  EXPECT_EQ(queued.status, RunStatus::kTimedOut);
  EXPECT_EQ(queued.error, "deadline expired while queued");

  RunRecord ran;
  ran.attempts = 2;
  lifecycle.expire(ran);
  EXPECT_EQ(ran.status, RunStatus::kTimedOut);
  EXPECT_EQ(ran.error, "run exceeded deadline");
  EXPECT_EQ(lifecycle.stats().runs_timed_out, 2u);
}

TEST(RunLifecycle, LateSuccessIsATimeoutAndSkipsTheWatchdogWindow) {
  RunPolicy policy;
  policy.run_deadline = milliseconds(50);
  policy.watchdog_multiple = 2.0;
  policy.watchdog_floor = milliseconds(0);
  policy.watchdog_min_samples = 1;
  RunLifecycle lifecycle(policy);
  const auto t0 = clock::now();
  RunRecord rec;
  rec.attempts = 1;
  lifecycle.succeed(rec, some_qor(), 80.0, t0, t0 + milliseconds(80));
  EXPECT_EQ(rec.status, RunStatus::kTimedOut);
  EXPECT_EQ(rec.error, "run exceeded deadline");
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 0.0);

  RunRecord on_time;
  on_time.attempts = 1;
  lifecycle.succeed(on_time, some_qor(), 10.0, t0, t0 + milliseconds(10));
  EXPECT_TRUE(on_time.ok());
  EXPECT_EQ(on_time.qor.delay_ns, 3.0);
  EXPECT_TRUE(on_time.error.empty());
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 20.0);
}

TEST(RunLifecycle, WatchdogArmsAtMinSamples) {
  RunPolicy policy;
  policy.watchdog_multiple = 3.0;
  policy.watchdog_floor = milliseconds(0);
  policy.watchdog_min_samples = 5;
  RunLifecycle lifecycle(policy);
  succeed_n(lifecycle, 4, 10.0);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 0.0);
  succeed_n(lifecycle, 1, 10.0);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 30.0);
}

TEST(RunLifecycle, WatchdogDisabledNeverArms) {
  RunPolicy policy;
  policy.watchdog_min_samples = 1;
  RunLifecycle lifecycle(policy);  // watchdog_multiple == 0
  succeed_n(lifecycle, 10, 10.0);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 0.0);
}

TEST(RunLifecycle, WatchdogThresholdIsClampedToFloor) {
  RunPolicy policy;
  policy.watchdog_multiple = 2.0;
  policy.watchdog_floor = milliseconds(1000);
  policy.watchdog_min_samples = 1;
  RunLifecycle lifecycle(policy);
  succeed_n(lifecycle, 3, 10.0);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 1000.0);
  succeed_n(lifecycle, 4, 900.0);  // median now 900 ms
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 1800.0);
}

TEST(RunLifecycle, WatchdogWindowRollsOverAfter64Runs) {
  ASSERT_EQ(RunLifecycle::kWatchdogWindow, 64u);
  RunPolicy policy;
  policy.watchdog_multiple = 1.0;
  policy.watchdog_floor = milliseconds(0);
  policy.watchdog_min_samples = 1;
  RunLifecycle lifecycle(policy);
  succeed_n(lifecycle, 64, 100.0);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 100.0);
  // 32 fast runs replace the 32 oldest slow ones: the window still holds
  // 64 entries, and the median (element 32 of the sorted window) is slow.
  succeed_n(lifecycle, 32, 1.0);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 100.0);
  // One more evicts a slow run; the fast runs are now the majority.
  succeed_n(lifecycle, 1, 1.0);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 1.0);
  // A whole window of fast runs leaves no slow run behind.
  succeed_n(lifecycle, 64, 2.0);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 2.0);
}

TEST(RunLifecycle, WatchdogCancelIsAPermanentTimeout) {
  RunLifecycle lifecycle(RunPolicy{});
  RunRecord rec;
  rec.attempts = 1;
  lifecycle.cancel_hung(rec);
  EXPECT_EQ(rec.status, RunStatus::kTimedOut);
  EXPECT_NE(rec.error.find("watchdog"), std::string::npos);
  const EvalServiceStats stats = lifecycle.stats();
  EXPECT_EQ(stats.runs_timed_out, 1u);
  EXPECT_EQ(stats.runs_watchdog_cancelled, 1u);
}

TEST(RunLifecycle, StatsFoldEveryClosedRecord) {
  RunLifecycle lifecycle(RunPolicy{});
  RunRecord ok;
  ok.attempts = 2;
  lifecycle.succeed(ok, some_qor(), 1.0, clock::now(), clock::now());
  RunRecord failed;
  failed.attempts = 1;
  lifecycle.fail(failed, "no workers available");
  RunRecord queued;
  lifecycle.expire(queued);
  lifecycle.count_batch();

  const EvalServiceStats stats = lifecycle.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.runs_ok, 1u);
  EXPECT_EQ(stats.runs_failed, 1u);
  EXPECT_EQ(stats.runs_timed_out, 1u);
  EXPECT_EQ(stats.runs_watchdog_cancelled, 0u);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 1u);
}

TEST(RunLifecycle, ConcurrentRunsAndWatchdogReadsAreSafe) {
  // EvalService's license workers fold records while its watchdog thread
  // reads the median window; TSan checks this interleaving.
  RunPolicy policy;
  policy.watchdog_multiple = 2.0;
  policy.watchdog_floor = milliseconds(0);
  policy.watchdog_min_samples = 1;
  RunLifecycle lifecycle(policy);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&lifecycle] { succeed_n(lifecycle, 200, 5.0); });
  }
  for (int i = 0; i < 200; ++i) (void)lifecycle.watchdog_threshold_ms();
  for (auto& w : workers) w.join();
  EXPECT_EQ(lifecycle.stats().runs_ok, 800u);
  EXPECT_EQ(lifecycle.watchdog_threshold_ms(), 10.0);
}

}  // namespace
}  // namespace ppat::flow
