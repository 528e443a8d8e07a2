// tuner::LiveCandidatePool: run_ppatuner over a live EvalService must be
// observationally identical to benchmark replay when the oracle is
// fault-free (for any license count), and must degrade gracefully — not
// crash, not leak budget, not return quarantined candidates — when runs
// fail.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flow/eval_service.hpp"
#include "flow/oracle_decorators.hpp"
#include "pareto/pareto.hpp"
#include "synthetic_benchmark.hpp"
#include "tuner/live_pool.hpp"
#include "tuner/ppatuner.hpp"

namespace ppat {
namespace {

tuner::PPATunerOptions fast_options() {
  tuner::PPATunerOptions opt;
  opt.min_init = 6;
  opt.batch_size = 4;
  opt.max_runs = 18;
  opt.max_rounds = 10;
  opt.refit_every = 2;
  opt.num_threads = 1;
  opt.seed = 3;
  return opt;
}

TEST(LiveCandidatePool, RevealMatchesBenchmarkGolden) {
  const auto set = testing::synthetic_benchmark("live_parity", 20, 5);
  tuner::BenchmarkCandidatePool bench(&set, tuner::kAreaPowerDelay);
  testing::SyntheticOracle oracle;
  flow::EvalService service(oracle, set.space);
  tuner::LiveCandidatePool live(set.configs, tuner::kAreaPowerDelay, service);

  ASSERT_EQ(live.size(), bench.size());
  ASSERT_EQ(live.encoded(), bench.encoded());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live.reveal_batch({i}).front().value,
              bench.reveal_batch({i}).front().value)
        << "candidate " << i;
  }
  EXPECT_EQ(live.runs(), bench.runs());
  // Repeat reveals are memoized: no further tool runs.
  const std::size_t runs_before = oracle.run_count();
  live.reveal_batch({0});
  live.reveal_batch({0, 1, 2});
  EXPECT_EQ(oracle.run_count(), runs_before);
  EXPECT_EQ(live.runs(), bench.runs());
}

TEST(LiveCandidatePool, TunerIdenticalToBenchmarkReplayForAnyLicenseCount) {
  const auto set = testing::synthetic_benchmark("live_tuner", 48, 7);
  const auto opt = fast_options();
  const auto factory = tuner::make_plain_gp_factory();

  tuner::BenchmarkCandidatePool bench(&set, tuner::kAreaDelay);
  const auto expected = run_ppatuner(bench, factory, opt);
  ASSERT_FALSE(expected.pareto_indices.empty());

  for (std::size_t licenses : {std::size_t{1}, std::size_t{4},
                               std::size_t{16}}) {
    testing::SyntheticOracle oracle;
    flow::EvalServiceOptions eopt;
    eopt.licenses = licenses;
    flow::EvalService service(oracle, set.space, eopt);
    tuner::LiveCandidatePool live(set.configs, tuner::kAreaDelay, service);

    const auto got = run_ppatuner(live, factory, opt);
    EXPECT_EQ(got.pareto_indices, expected.pareto_indices)
        << "licenses=" << licenses;
    EXPECT_EQ(got.tool_runs, expected.tool_runs) << "licenses=" << licenses;
    EXPECT_EQ(got.failed_runs, 0u);
    EXPECT_EQ(live.failed_evaluations(), 0u);
    EXPECT_EQ(oracle.run_count(), got.tool_runs);
  }
}

TEST(LiveCandidatePool, PermanentFailureQuarantinesWithoutRedispatch) {
  const auto set = testing::synthetic_benchmark("live_fail", 16, 9);
  testing::SyntheticOracle inner;
  flow::FaultInjectionOptions fopt;
  fopt.permanent_failure_rate = 0.25;
  fopt.seed = 0x90u;
  flow::FaultInjectingOracle fault(inner, fopt);
  flow::EvalServiceOptions eopt;
  eopt.max_attempts = 2;
  flow::EvalService service(fault, set.space, eopt);
  tuner::LiveCandidatePool live(set.configs, tuner::kPowerDelay, service);

  // Find a candidate destined to fail under this seed.
  std::size_t doomed = set.configs.size();
  for (std::size_t i = 0; i < set.configs.size(); ++i) {
    if (fault.is_permanently_failing(set.configs[i])) {
      doomed = i;
      break;
    }
  }
  ASSERT_LT(doomed, set.configs.size())
      << "seed produced no permanently failing candidate";

  EXPECT_FALSE(live.reveal_batch({doomed}).front().ok);
  EXPECT_TRUE(live.is_failed(doomed));
  EXPECT_FALSE(live.is_revealed(doomed));
  EXPECT_EQ(live.runs(), 0u);
  EXPECT_EQ(live.failed_evaluations(), 1u);
  ASSERT_NE(live.record(doomed), nullptr);
  EXPECT_EQ(live.record(doomed)->status, flow::RunStatus::kFailed);
  EXPECT_EQ(live.record(doomed)->attempts, eopt.max_attempts);

  // A known-failed candidate is never re-dispatched: the failure is
  // remembered, the tool is not re-run.
  const std::size_t calls_before = fault.run_count();
  EXPECT_FALSE(live.reveal_batch({doomed}).front().ok);
  const auto outcomes = live.reveal_batch({doomed});
  EXPECT_FALSE(outcomes.front().ok);
  EXPECT_FALSE(outcomes.front().error.empty());
  // The outcome carries the true run accounting (journaling callers
  // persist these): a crash is not a timeout, attempts are the real count.
  EXPECT_FALSE(outcomes.front().timed_out);
  EXPECT_EQ(outcomes.front().attempts, eopt.max_attempts);
  EXPECT_EQ(fault.run_count(), calls_before);
  EXPECT_EQ(live.failed_evaluations(), 1u);
}

TEST(LiveCandidatePool, TunerSurvivesInjectedFaultsAndQuarantines) {
  const auto set = testing::synthetic_benchmark("live_faulty_tuner", 60, 11);
  const auto opt = fast_options();
  const auto factory = tuner::make_plain_gp_factory();

  // Fault-free reference at the same successful-run budget.
  tuner::TuningResult clean;
  {
    testing::SyntheticOracle oracle;
    flow::EvalServiceOptions eopt;
    eopt.licenses = 4;
    flow::EvalService service(oracle, set.space, eopt);
    tuner::LiveCandidatePool live(set.configs, tuner::kAreaDelay, service);
    clean = run_ppatuner(live, factory, opt);
  }

  // ISSUE acceptance scenario: 20% transient + 5% permanent failures.
  testing::SyntheticOracle inner;
  flow::FaultInjectionOptions fopt;
  fopt.transient_failure_rate = 0.20;
  fopt.permanent_failure_rate = 0.05;
  fopt.seed = 0x5eedu;
  flow::FaultInjectingOracle fault(inner, fopt);
  flow::CachingOracle cache(fault);
  flow::EvalServiceOptions eopt;
  eopt.licenses = 4;
  eopt.max_attempts = 4;
  flow::EvalService service(cache, set.space, eopt);
  tuner::LiveCandidatePool live(set.configs, tuner::kAreaDelay, service);

  tuner::PPATunerDiagnostics diag;
  const auto result = run_ppatuner(live, factory, opt, &diag);

  // Failures never consume run budget; successful runs stay within it.
  EXPECT_LE(result.tool_runs, opt.max_runs);
  EXPECT_EQ(result.failed_runs, live.failed_evaluations());
  EXPECT_EQ(diag.failed_evaluations, live.failed_evaluations());
  EXPECT_FALSE(result.pareto_indices.empty());

  // Quarantined candidates are never part of the answer.
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live.is_failed(i)) {
      EXPECT_EQ(std::count(result.pareto_indices.begin(),
                           result.pareto_indices.end(), i),
                0)
          << "quarantined candidate " << i << " returned as Pareto";
    }
  }

  // Quality under faults stays within 2x of the fault-free ADRS at equal
  // successful-run budget (scored offline against the full golden front).
  tuner::BenchmarkCandidatePool scorer(&set, tuner::kAreaDelay);
  const auto q_clean = evaluate_result(scorer, clean);
  const auto q_fault = evaluate_result(scorer, result);
  EXPECT_LE(q_fault.adrs, std::max(2.0 * q_clean.adrs, 0.05))
      << "clean adrs=" << q_clean.adrs << " faulty adrs=" << q_fault.adrs;
}

}  // namespace
}  // namespace ppat
