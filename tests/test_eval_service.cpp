// flow::EvalService: license-bounded batch dispatch, bounded retry,
// cooperative deadlines, and the oracle decorators (fault injection,
// caching). The load-bearing property is determinism: record i always
// describes configs[i], and outcomes never depend on the license count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "flow/eval_service.hpp"
#include "flow/oracle_decorators.hpp"
#include "sample/sampling.hpp"
#include "synthetic_benchmark.hpp"

namespace ppat {
namespace {

std::vector<flow::Config> make_configs(const flow::ParameterSpace& space,
                                       std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto unit = sample::latin_hypercube(n, space.size(), rng);
  std::vector<flow::Config> configs;
  configs.reserve(n);
  for (const auto& u : unit) configs.push_back(space.decode(u));
  return configs;
}

/// Fails the first `failures` attempts of every configuration, then
/// delegates to the inner oracle.
class FlakyOracle final : public flow::QorOracle {
 public:
  FlakyOracle(flow::QorOracle& inner, std::size_t failures)
      : inner_(inner), failures_(failures) {}

  flow::QoR evaluate(const flow::ParameterSpace& space,
                     const flow::Config& config) override {
    std::size_t attempt;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      attempt = ++attempts_[config];
    }
    if (attempt <= failures_) {
      throw flow::ToolRunError("flaky: injected attempt failure");
    }
    return inner_.evaluate(space, config);
  }
  std::size_t run_count() const override { return inner_.run_count(); }

  std::size_t attempts_seen(const flow::Config& config) {
    std::lock_guard<std::mutex> lock(mutex_);
    return attempts_[config];
  }

 private:
  flow::QorOracle& inner_;
  std::size_t failures_;
  std::mutex mutex_;
  std::map<flow::Config, std::size_t> attempts_;
};

/// Sleeps before every evaluation (deadline tests).
class SlowOracle final : public flow::QorOracle {
 public:
  SlowOracle(flow::QorOracle& inner, std::chrono::milliseconds delay)
      : inner_(inner), delay_(delay) {}

  flow::QoR evaluate(const flow::ParameterSpace& space,
                     const flow::Config& config) override {
    std::this_thread::sleep_for(delay_);
    return inner_.evaluate(space, config);
  }
  std::size_t run_count() const override { return inner_.run_count(); }

 private:
  flow::QorOracle& inner_;
  std::chrono::milliseconds delay_;
};

TEST(EvalService, RecordsIndexedByBatchPosition) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 12, 42);
  testing::SyntheticOracle oracle;
  flow::EvalServiceOptions opt;
  opt.licenses = 4;
  flow::EvalService service(oracle, space, opt);

  const auto records = service.evaluate_batch(configs);
  ASSERT_EQ(records.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(records[i].ok()) << records[i].error;
    EXPECT_EQ(records[i].attempts, 1u);
    const flow::QoR want = testing::synthetic_qor(space.encode(configs[i]));
    EXPECT_EQ(records[i].qor.area_um2, want.area_um2);
    EXPECT_EQ(records[i].qor.power_mw, want.power_mw);
    EXPECT_EQ(records[i].qor.delay_ns, want.delay_ns);
  }
  EXPECT_EQ(oracle.run_count(), configs.size());
  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.runs_ok, configs.size());
  EXPECT_EQ(stats.runs_failed, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(EvalService, RetriesTransientFailuresUpToMaxAttempts) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 1);
  testing::SyntheticOracle inner;
  FlakyOracle flaky(inner, 2);  // attempts 1 and 2 fail, attempt 3 succeeds
  flow::EvalServiceOptions opt;
  opt.max_attempts = 3;
  flow::EvalService service(flaky, space, opt);

  const auto record = service.evaluate_batch({configs[0]}).front();
  EXPECT_TRUE(record.ok()) << record.error;
  EXPECT_EQ(record.attempts, 3u);
  EXPECT_EQ(record.retries(), 2u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.runs_ok, 1u);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
}

TEST(EvalService, ExhaustedRetriesRecordPermanentFailure) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 2);
  testing::SyntheticOracle inner;
  FlakyOracle flaky(inner, 1000);  // never succeeds
  flow::EvalServiceOptions opt;
  opt.max_attempts = 3;
  flow::EvalService service(flaky, space, opt);

  const auto record = service.evaluate_batch({configs[0]}).front();
  EXPECT_FALSE(record.ok());
  EXPECT_EQ(record.status, flow::RunStatus::kFailed);
  EXPECT_EQ(record.attempts, 3u);
  EXPECT_FALSE(record.error.empty());
  EXPECT_EQ(inner.run_count(), 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.runs_failed, 1u);
  EXPECT_EQ(stats.runs_ok, 0u);
}

TEST(EvalService, SingleAttemptDisablesRetry) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 3);
  testing::SyntheticOracle inner;
  FlakyOracle flaky(inner, 1);
  flow::EvalServiceOptions opt;
  opt.max_attempts = 1;
  flow::EvalService service(flaky, space, opt);

  const auto record = service.evaluate_batch({configs[0]}).front();
  EXPECT_EQ(record.status, flow::RunStatus::kFailed);
  EXPECT_EQ(record.attempts, 1u);
  EXPECT_EQ(flaky.attempts_seen(configs[0]), 1u);
}

TEST(EvalService, DeadlineClassifiesSlowRunsAsTimedOut) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 4);
  testing::SyntheticOracle inner;
  SlowOracle slow(inner, std::chrono::milliseconds(25));
  flow::EvalServiceOptions opt;
  opt.max_attempts = 2;
  opt.run_deadline = std::chrono::milliseconds(1);
  flow::EvalService service(slow, space, opt);

  const auto record = service.evaluate_batch({configs[0]}).front();
  EXPECT_EQ(record.status, flow::RunStatus::kTimedOut);
  // A run past its deadline is NOT retried: a retry could only finish even
  // further past the deadline, so the one slow attempt is final.
  EXPECT_EQ(record.attempts, 1u);
  EXPECT_GT(record.elapsed_ms, 0.0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.runs_timed_out, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(EvalService, DeterministicAcrossLicenseCounts) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 24, 99);
  flow::FaultInjectionOptions fopt;
  fopt.transient_failure_rate = 0.3;
  fopt.permanent_failure_rate = 0.1;
  fopt.seed = 0xfeedu;

  std::vector<std::vector<flow::RunRecord>> per_license;
  for (std::size_t licenses : {std::size_t{1}, std::size_t{4},
                               std::size_t{16}}) {
    testing::SyntheticOracle inner;
    flow::FaultInjectingOracle fault(inner, fopt);
    flow::EvalServiceOptions opt;
    opt.licenses = licenses;
    opt.max_attempts = 4;
    flow::EvalService service(fault, space, opt);
    per_license.push_back(service.evaluate_batch(configs));
  }
  for (std::size_t l = 1; l < per_license.size(); ++l) {
    ASSERT_EQ(per_license[l].size(), per_license[0].size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const auto& a = per_license[0][i];
      const auto& b = per_license[l][i];
      EXPECT_EQ(a.status, b.status) << "config " << i;
      EXPECT_EQ(a.attempts, b.attempts) << "config " << i;
      EXPECT_EQ(a.qor.area_um2, b.qor.area_um2) << "config " << i;
      EXPECT_EQ(a.qor.power_mw, b.qor.power_mw) << "config " << i;
      EXPECT_EQ(a.qor.delay_ns, b.qor.delay_ns) << "config " << i;
    }
  }
}

TEST(FaultInjectingOracle, PermanentDecisionMatchesOutcome) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 30, 17);
  testing::SyntheticOracle inner;
  flow::FaultInjectionOptions fopt;
  fopt.permanent_failure_rate = 0.2;
  fopt.seed = 0xabcu;
  flow::FaultInjectingOracle fault(inner, fopt);
  flow::EvalServiceOptions opt;
  opt.max_attempts = 3;
  flow::EvalService service(fault, space, opt);

  const auto records = service.evaluate_batch(configs);
  std::size_t doomed = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (fault.is_permanently_failing(configs[i])) {
      ++doomed;
      EXPECT_EQ(records[i].status, flow::RunStatus::kFailed);
      EXPECT_EQ(records[i].attempts, opt.max_attempts);
    } else {
      EXPECT_TRUE(records[i].ok()) << records[i].error;
    }
  }
  // With rate 0.2 over 30 configs a seed producing zero (or all) permanent
  // failures would make the test vacuous.
  EXPECT_GT(doomed, 0u);
  EXPECT_LT(doomed, configs.size());
  EXPECT_EQ(fault.injected_permanent_failures(), doomed * opt.max_attempts);
}

TEST(CachingOracle, DeduplicatesRepeatRuns) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 5);
  testing::SyntheticOracle inner;
  flow::CachingOracle cache(inner);

  const flow::QoR first = cache.evaluate(space, configs[0]);
  const flow::QoR second = cache.evaluate(space, configs[0]);
  EXPECT_EQ(inner.run_count(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.area_um2, second.area_um2);
  EXPECT_EQ(first.power_mw, second.power_mw);
  EXPECT_EQ(first.delay_ns, second.delay_ns);
}

TEST(CachingOracle, FailuresAreNotCached) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 6);
  testing::SyntheticOracle inner;
  FlakyOracle flaky(inner, 1);  // first attempt fails, second succeeds
  flow::CachingOracle cache(flaky);

  EXPECT_THROW(cache.evaluate(space, configs[0]), flow::ToolRunError);
  const flow::QoR qor = cache.evaluate(space, configs[0]);
  EXPECT_EQ(flaky.attempts_seen(configs[0]), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  const flow::QoR want = testing::synthetic_qor(space.encode(configs[0]));
  EXPECT_EQ(qor.area_um2, want.area_um2);
}

TEST(CachingOracle, InFlightRunsDeduplicateAcrossThreads) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 8);
  constexpr std::size_t kThreads = 8;

  // Holds its (single) caller inside evaluate until released, so every
  // worker thread piles onto the same in-flight cache entry instead of
  // finding a completed line.
  class HoldingOracle final : public flow::QorOracle {
   public:
    flow::QoR evaluate(const flow::ParameterSpace& space,
                       const flow::Config& config) override {
      ++calls_;
      release.wait();
      return testing::synthetic_qor(space.encode(config));
    }
    std::size_t run_count() const override { return calls_; }
    std::latch release{1};

   private:
    std::atomic<std::size_t> calls_{0};
  };
  HoldingOracle inner;
  flow::CachingOracle cache(inner);

  std::latch started(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<flow::QoR> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      started.count_down();
      started.wait();  // all threads race the same entry together
      results[t] = cache.evaluate(space, configs[0]);
    });
  }
  started.wait();
  // Give the losers time to reach the cache while the run is in flight,
  // then let the single inner call finish. (Correctness does not depend on
  // this timing — a late arrival is an ordinary cache hit.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  inner.release.count_down();
  for (auto& w : workers) w.join();

  EXPECT_EQ(inner.run_count(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), kThreads - 1);
  const flow::QoR want = testing::synthetic_qor(space.encode(configs[0]));
  for (const auto& qor : results) {
    EXPECT_EQ(qor.area_um2, want.area_um2);
    EXPECT_EQ(qor.power_mw, want.power_mw);
    EXPECT_EQ(qor.delay_ns, want.delay_ns);
  }
}

TEST(CachingOracle, ConcurrentFailureDoesNotPoisonCache) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 9);
  constexpr std::size_t kThreads = 6;

  class SwitchableOracle final : public flow::QorOracle {
   public:
    flow::QoR evaluate(const flow::ParameterSpace& space,
                       const flow::Config& config) override {
      ++calls_;
      // Widen the in-flight window so concurrent callers share the flight.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (failing.load()) throw flow::ToolRunError("injected failure");
      return testing::synthetic_qor(space.encode(config));
    }
    std::size_t run_count() const override { return calls_; }
    std::atomic<bool> failing{true};

   private:
    std::atomic<std::size_t> calls_{0};
  };
  SwitchableOracle inner;
  flow::CachingOracle cache(inner);

  // Phase 1: every attempt fails. Whether a thread owns a flight or waits
  // on another's, the failure must propagate to it — and must NOT be
  // memoized.
  std::atomic<std::size_t> throws{0};
  std::latch started(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      started.count_down();
      started.wait();
      try {
        (void)cache.evaluate(space, configs[0]);
      } catch (const flow::ToolRunError&) {
        ++throws;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(throws, kThreads);

  // Phase 2: the tool recovers. The failed flights must not have been
  // cached: the next evaluate re-attempts the tool and succeeds...
  inner.failing = false;
  const std::size_t calls_before = inner.run_count();
  const flow::QoR qor = cache.evaluate(space, configs[0]);
  EXPECT_EQ(inner.run_count(), calls_before + 1);
  const flow::QoR want = testing::synthetic_qor(space.encode(configs[0]));
  EXPECT_EQ(qor.area_um2, want.area_um2);
  // ...and THAT success is memoized.
  (void)cache.evaluate(space, configs[0]);
  EXPECT_EQ(inner.run_count(), calls_before + 1);
}

TEST(EvalService, DeadlineExpiredWhileQueuedReportsZeroAttempts) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 4, 11);
  testing::SyntheticOracle inner;
  SlowOracle slow(inner, std::chrono::milliseconds(30));
  flow::EvalServiceOptions opt;
  opt.licenses = 1;  // sequential: later configs wait behind the first
  opt.max_attempts = 3;
  opt.run_deadline = std::chrono::milliseconds(20);
  flow::EvalService service(slow, space, opt);

  const auto records = service.evaluate_batch(configs);
  ASSERT_EQ(records.size(), configs.size());
  // The first config dispatched immediately and blew the deadline in
  // flight: one attempt, classified post-hoc.
  EXPECT_EQ(records[0].status, flow::RunStatus::kTimedOut);
  EXPECT_EQ(records[0].attempts, 1u);
  // Every later config's deadline expired while it was still queued behind
  // the first: kTimedOut with ZERO attempts — not a retryable failure, and
  // no tool time was wasted on it.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].status, flow::RunStatus::kTimedOut) << i;
    EXPECT_EQ(records[i].attempts, 0u) << i;
    EXPECT_EQ(records[i].error, "deadline expired while queued") << i;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.runs_timed_out, configs.size());
  EXPECT_EQ(stats.runs_failed, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(EvalService, RetryBackoffPastDeadlineSpendsNoToolRun) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 1, 31);
  testing::SyntheticOracle inner;
  FlakyOracle flaky(inner, 1);  // the first attempt fails
  flow::EvalServiceOptions opt;
  opt.max_attempts = 2;
  opt.retry_backoff = std::chrono::milliseconds(200);
  opt.run_deadline = std::chrono::milliseconds(100);
  flow::EvalService service(flaky, space, opt);

  // The retry's backoff ends past the deadline. The deadline is checked at
  // dispatch, after the backoff, so the retry never reaches the tool.
  const auto record = service.evaluate_batch({configs[0]}).front();
  EXPECT_EQ(flaky.attempts_seen(configs[0]), 1u);
  EXPECT_EQ(record.status, flow::RunStatus::kTimedOut);
  EXPECT_EQ(record.attempts, 1u);
  EXPECT_EQ(record.error, "run exceeded deadline");
  EXPECT_EQ(service.stats().attempts, 1u);
}

/// Cancellable oracle that can be switched into a hung state: a hung run
/// spins until the watchdog's CancelToken fires (or a 10 s safety bound).
class HangingOracle final : public flow::QorOracle,
                            public flow::CancellableOracle {
 public:
  explicit HangingOracle(flow::QorOracle& inner) : inner_(inner) {}

  flow::QoR evaluate(const flow::ParameterSpace& space,
                     const flow::Config& config) override {
    return inner_.evaluate(space, config);
  }
  flow::QoR evaluate_with_cancel(const flow::ParameterSpace& space,
                                 const flow::Config& config,
                                 const flow::CancelToken& cancel) override {
    if (hang.load()) {
      const auto t0 = std::chrono::steady_clock::now();
      while (!cancel.cancelled() &&
             std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      saw_cancel.store(cancel.cancelled());
      throw flow::ToolRunError("hung run aborted by tool wrapper");
    }
    return inner_.evaluate(space, config);
  }
  std::size_t run_count() const override { return inner_.run_count(); }

  std::atomic<bool> hang{false};
  std::atomic<bool> saw_cancel{false};

 private:
  flow::QorOracle& inner_;
};

TEST(EvalService, WatchdogCancelsHungRunPermanently) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 7, 23);
  testing::SyntheticOracle inner;
  HangingOracle oracle(inner);
  flow::EvalServiceOptions opt;
  opt.max_attempts = 3;
  opt.watchdog_multiple = 2.0;
  opt.watchdog_floor = std::chrono::milliseconds(30);
  opt.watchdog_min_samples = 4;
  opt.watchdog_poll = std::chrono::milliseconds(10);
  flow::EvalService service(oracle, space, opt);

  // Establish the rolling median with fast, successful runs.
  const auto warmup = service.evaluate_batch(
      {configs.begin(), configs.begin() + 6});
  for (const auto& rec : warmup) ASSERT_TRUE(rec.ok());

  // Now hang: the watchdog must cancel the run via the token, and the
  // cancellation must be PERMANENT (one attempt, no retry into another
  // hang).
  oracle.hang.store(true);
  const auto record = service.evaluate_batch({configs[6]}).front();
  EXPECT_TRUE(oracle.saw_cancel.load());
  EXPECT_EQ(record.status, flow::RunStatus::kTimedOut);
  EXPECT_EQ(record.attempts, 1u);
  EXPECT_NE(record.error.find("watchdog"), std::string::npos);
  const auto stats = service.stats();
  EXPECT_EQ(stats.runs_watchdog_cancelled, 1u);
  EXPECT_EQ(stats.runs_timed_out, 1u);
}

TEST(EvalService, ObserverSeesEveryCompletionOnce) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 12, 5);
  testing::SyntheticOracle inner;
  FlakyOracle flaky(inner, 1);  // first attempt of each config fails
  flow::EvalServiceOptions opt;
  opt.licenses = 4;
  opt.max_attempts = 2;
  flow::EvalService service(flaky, space, opt);

  std::mutex mutex;
  std::map<std::size_t, flow::RunRecord> seen;
  const auto records = service.evaluate_batch(
      configs, [&](std::size_t i, const flow::RunRecord& rec) {
        std::lock_guard<std::mutex> lock(mutex);
        ASSERT_FALSE(seen.contains(i)) << "index " << i << " observed twice";
        seen[i] = rec;
      });

  ASSERT_EQ(seen.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(seen.contains(i));
    EXPECT_EQ(seen[i].status, records[i].status);
    EXPECT_EQ(seen[i].attempts, records[i].attempts);
    EXPECT_EQ(seen[i].qor.area_um2, records[i].qor.area_um2);
  }
}

TEST(CachingOracle, MakesRepeatBatchesFree) {
  const auto space = testing::synthetic_space();
  const auto configs = make_configs(space, 8, 7);
  testing::SyntheticOracle inner;
  flow::CachingOracle cache(inner);
  flow::EvalServiceOptions opt;
  opt.licenses = 4;
  flow::EvalService service(cache, space, opt);

  const auto first = service.evaluate_batch(configs);
  const auto second = service.evaluate_batch(configs);
  EXPECT_EQ(inner.run_count(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    EXPECT_EQ(first[i].qor.area_um2, second[i].qor.area_um2);
  }
}

}  // namespace
}  // namespace ppat
