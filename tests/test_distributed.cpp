// Distributed oracle fleet: coordinator/worker semantics.
//
// Workers here are in-process THREADS running the real run_worker_loop
// against the coordinator's Unix socket — the same code path as the
// ppatuner_worker binary, minus the process boundary — so these tests pin
// the protocol, the work-stealing dispatch, retry behavior, license
// leasing, the exactly-once ledger, and bitwise fingerprint parity with the
// in-process EvalService. Process-kill scenarios live in test_dist_crash.
// Suite names contain "Distributed" on purpose: the TSan CI job selects on
// it.
//
// Lifetime rule used throughout: the coordinator is held in a unique_ptr
// and reset() BEFORE the test scope unwinds, so worker loops see EOF and
// exit before the WorkerThread destructors join them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "dist/coordinator.hpp"
#include "dist/oracles.hpp"
#include "dist/worker.hpp"
#include "flow/eval_service.hpp"
#include "flow/oracle_decorators.hpp"
#include "journal/reveal_ledger.hpp"
#include "server/wire.hpp"
#include "tuner/live_pool.hpp"

using namespace ppat;

namespace {

using Coord = std::unique_ptr<dist::DistributedEvalService>;

Coord make_coord(const flow::ParameterSpace& space,
                 dist::DistributedOptions dopt) {
  return std::make_unique<dist::DistributedEvalService>(space,
                                                        std::move(dopt));
}

std::string tmp_socket(const std::string& tag) {
  static std::atomic<int> counter{0};
  return std::string(::testing::TempDir()) + "dist_" + tag + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Batch of distinct unit-cube candidates for a dim-3 space.
std::vector<flow::Config> make_batch(const flow::ParameterSpace& space,
                                     std::size_t n, std::uint64_t seed) {
  std::vector<flow::Config> configs;
  configs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector u(space.size());
    for (std::size_t d = 0; d < space.size(); ++d) {
      // Deterministic, distinct fill; the exact values are irrelevant.
      u[d] = std::fmod(0.37 + 0.61 * static_cast<double>(i * 3 + d) +
                           1e-3 * static_cast<double>(seed % 97),
                       1.0);
    }
    configs.push_back(space.decode(u));
  }
  return configs;
}

/// In-process worker thread: connect, serve, record the loop's exit code.
/// With `faults`, the worker serves its oracle through a
/// FaultInjectingOracle with that schedule.
class WorkerThread {
 public:
  WorkerThread(const std::string& socket, std::uint64_t seed,
               dist::WorkerLoopOptions opts = {},
               std::optional<flow::FaultInjectionOptions> faults = {})
      : oracle_(seed),
        space_(dist::unit_cube_space(3)),
        thread_([this, socket, opts, faults] {
          std::optional<flow::FaultInjectingOracle> faulty;
          flow::QorOracle* served = &oracle_;
          if (faults.has_value()) served = &faulty.emplace(oracle_, *faults);
          const int fd = dist::connect_worker(socket);
          rc_ = fd < 0 ? -1
                       : dist::run_worker_loop(fd, *served, space_, opts);
        }) {}
  ~WorkerThread() { join(); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }
  int rc() const { return rc_; }

 private:
  dist::SyntheticOracle oracle_;
  flow::ParameterSpace space_;
  int rc_ = -100;
  std::thread thread_;
};

/// Fingerprint over the determinism-relevant record fields (status,
/// attempts, QoR bit patterns; elapsed_ms is wall clock and excluded, as
/// everywhere else in this codebase).
std::uint64_t fingerprint(const std::vector<flow::RunRecord>& records) {
  std::uint64_t h = 0x46505249ull;
  for (const flow::RunRecord& r : records) {
    h = journal::mix_hash(h, static_cast<std::uint64_t>(r.status));
    h = journal::mix_hash(h, r.attempts);
    if (r.ok()) {
      const double qor[3] = {r.qor.area_um2, r.qor.power_mw, r.qor.delay_ns};
      h = journal::hash_doubles(h, qor);
    }
  }
  return h;
}

}  // namespace

TEST(Distributed, SingleWorkerMatchesEvalServiceBitwise) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 12, 7);

  dist::SyntheticOracle reference(7);
  flow::EvalService local(reference, space);
  const auto expect = local.evaluate_batch(configs);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("parity1");
  Coord coord = make_coord(space, dopt);
  WorkerThread worker(dopt.socket_path, 7);
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));
  const auto got = coord->evaluate_batch(configs);
  const auto stats = coord->stats();
  coord.reset();

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, expect[i].status) << i;
    EXPECT_EQ(got[i].attempts, expect[i].attempts) << i;
    // Bitwise: the QoR doubles crossed the wire as raw bit patterns.
    EXPECT_EQ(got[i].qor.area_um2, expect[i].qor.area_um2) << i;
    EXPECT_EQ(got[i].qor.power_mw, expect[i].qor.power_mw) << i;
    EXPECT_EQ(got[i].qor.delay_ns, expect[i].qor.delay_ns) << i;
  }
  EXPECT_EQ(fingerprint(got), fingerprint(expect));
  EXPECT_EQ(stats.runs_ok, configs.size());
}

TEST(Distributed, SingleWorkerMatchesEvalServiceUnderFaults) {
  // One seeded fault schedule (transient and permanent failures) through
  // both evaluators: they share one RunLifecycle, so every record and every
  // shared stats counter must agree.
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 24, 17);
  flow::FaultInjectionOptions faults;
  faults.transient_failure_rate = 0.35;
  faults.permanent_failure_rate = 0.15;
  faults.seed = 0xfa017;

  dist::SyntheticOracle reference(17);
  flow::FaultInjectingOracle faulty(reference, faults);
  flow::EvalServiceOptions eopt;
  eopt.max_attempts = 3;
  flow::EvalService local(faulty, space, eopt);
  const auto expect = local.evaluate_batch(configs);
  const flow::EvalServiceStats want = local.stats();
  // The schedule exercises every path: clean runs, recovered retries, and
  // runs that exhaust their attempts.
  ASSERT_GT(want.runs_ok, 0u);
  ASSERT_GT(want.runs_failed, 0u);
  ASSERT_GT(want.retries, want.runs_failed * 2);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("faultparity");
  dopt.max_attempts = 3;
  Coord coord = make_coord(space, dopt);
  WorkerThread worker(dopt.socket_path, 17, {}, faults);
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));
  const auto got = coord->evaluate_batch(configs);
  const dist::DistributedStats stats = coord->stats();
  coord.reset();

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, expect[i].status) << i;
    EXPECT_EQ(got[i].attempts, expect[i].attempts) << i;
    EXPECT_EQ(got[i].error, expect[i].error) << i;
  }
  EXPECT_EQ(fingerprint(got), fingerprint(expect));
  EXPECT_EQ(stats.batches, want.batches);
  EXPECT_EQ(stats.runs_ok, want.runs_ok);
  EXPECT_EQ(stats.runs_failed, want.runs_failed);
  EXPECT_EQ(stats.runs_timed_out, want.runs_timed_out);
  EXPECT_EQ(stats.runs_watchdog_cancelled, want.runs_watchdog_cancelled);
  EXPECT_EQ(stats.attempts, want.attempts);
  EXPECT_EQ(stats.retries, want.retries);
}

TEST(Distributed, FingerprintIdenticalAcrossWorkerCounts) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 16, 3);

  dist::SyntheticOracle reference(3);
  flow::EvalService local(reference, space);
  const std::uint64_t expect = fingerprint(local.evaluate_batch(configs));

  for (std::size_t workers : {1u, 2u, 4u}) {
    dist::DistributedOptions dopt;
    dopt.socket_path = tmp_socket("scale" + std::to_string(workers));
    Coord coord = make_coord(space, dopt);
    std::vector<std::unique_ptr<WorkerThread>> fleet;
    for (std::size_t w = 0; w < workers; ++w) {
      fleet.push_back(std::make_unique<WorkerThread>(dopt.socket_path, 3));
    }
    ASSERT_TRUE(coord->wait_for_workers(workers, std::chrono::seconds(5)));
    const auto got = coord->evaluate_batch(configs);
    coord.reset();
    EXPECT_EQ(fingerprint(got), expect) << workers << " workers";
  }
}

TEST(Distributed, StaleEpochWorkerIsRejectedThenGoodWorkerServes) {
  const auto space = dist::unit_cube_space(3);
  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("epoch");
  dopt.session_epoch = 5;
  Coord coord = make_coord(space, dopt);

  dist::WorkerLoopOptions stale;
  stale.session_epoch = 4;  // a previous coordinator incarnation
  WorkerThread old_worker(dopt.socket_path, 1, stale);
  // The rejection happens at the handshake; wait_for_workers pumps the
  // accept loop without the count ever reaching 1.
  EXPECT_FALSE(coord->wait_for_workers(1, std::chrono::milliseconds(400)));
  old_worker.join();
  EXPECT_EQ(old_worker.rc(), 2);
  EXPECT_EQ(coord->stats().workers_rejected, 1u);
  EXPECT_EQ(coord->worker_count(), 0u);

  dist::WorkerLoopOptions fresh;
  fresh.session_epoch = 5;
  WorkerThread good_worker(dopt.socket_path, 1, fresh);
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));
  const auto records = coord->evaluate_batch(make_batch(space, 4, 1));
  coord.reset();
  for (const auto& r : records) EXPECT_TRUE(r.ok());
}

TEST(Distributed, DimensionMismatchIsRejected) {
  const auto space = dist::unit_cube_space(5);  // coordinator expects dim 5
  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("dim");
  Coord coord = make_coord(space, dopt);
  WorkerThread worker(dopt.socket_path, 1);  // serves dim 3
  EXPECT_FALSE(coord->wait_for_workers(1, std::chrono::milliseconds(400)));
  worker.join();
  EXPECT_EQ(worker.rc(), 2);
  EXPECT_EQ(coord->stats().workers_rejected, 1u);
}

TEST(Distributed, FailedResultIsRetriedAndSucceeds) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 6, 9);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("flaky");
  Coord coord = make_coord(space, dopt);

  // A flaky tool: the very first evaluation fails, everything after
  // succeeds — the classic transient license/filesystem hiccup.
  dist::WorkerLoopOptions flaky;
  std::atomic<int> calls{0};
  flaky.on_eval = [&calls](std::uint64_t, std::uint32_t,
                           const flow::Config&) {
    if (calls.fetch_add(1) == 0) {
      throw flow::ToolRunError("transient tool hiccup");
    }
  };
  WorkerThread worker(dopt.socket_path, 9, flaky);
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));
  const auto records = coord->evaluate_batch(configs);
  const auto stats = coord->stats();
  coord.reset();

  std::size_t retried = 0;
  for (const auto& r : records) {
    EXPECT_TRUE(r.ok());
    if (r.attempts == 2) ++retried;
  }
  EXPECT_EQ(retried, 1u);
  EXPECT_EQ(stats.retries, 1u);

  // QoR parity holds regardless of which attempt produced the value: the
  // oracle is deterministic in the configuration.
  dist::SyntheticOracle reference(9);
  flow::EvalService local(reference, space);
  const auto expect = local.evaluate_batch(configs);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].qor.area_um2, expect[i].qor.area_um2) << i;
    EXPECT_EQ(records[i].qor.power_mw, expect[i].qor.power_mw) << i;
    EXPECT_EQ(records[i].qor.delay_ns, expect[i].qor.delay_ns) << i;
  }
}

TEST(Distributed, WorkerDeathCostsExactlyOneRetry) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 6, 9);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("death");
  Coord coord = make_coord(space, dopt);

  // A raw-socket worker that handshakes, accepts exactly ONE job, and
  // vanishes without ever replying — a true worker death mid-run, not a
  // failed result.
  std::thread doomed([&] {
    namespace wire = server::wire;
    const int fd = dist::connect_worker(dopt.socket_path);
    if (fd < 0) return;
    try {
      wire::Writer hello;
      hello.u32(wire::kProtocolVersion);
      hello.u64(1);  // default session epoch
      hello.str("synthetic");
      hello.u64(space.size());
      wire::write_frame(fd, wire::MsgType::kWorkerHello, hello.take());
      (void)wire::read_frame(fd);  // ack
      (void)wire::read_frame(fd);  // first kEvalRequest: take it and die
    } catch (const server::wire::WireError&) {
    }
    ::close(fd);
  });

  WorkerThread healthy(dopt.socket_path, 9);
  ASSERT_TRUE(coord->wait_for_workers(2, std::chrono::seconds(5)));
  const auto records = coord->evaluate_batch(configs);
  const auto stats = coord->stats();
  const auto survivors = coord->worker_count();
  coord.reset();
  doomed.join();

  // The batch completed on the survivor; the killed job cost one retry.
  std::size_t retried = 0;
  for (const auto& r : records) {
    EXPECT_TRUE(r.ok());
    EXPECT_GE(r.attempts, 1u);
    if (r.attempts == 2) ++retried;
  }
  EXPECT_EQ(retried, 1u);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(survivors, 1u);

  dist::SyntheticOracle reference(9);
  flow::EvalService local(reference, space);
  const auto expect = local.evaluate_batch(configs);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].qor.area_um2, expect[i].qor.area_um2) << i;
    EXPECT_EQ(records[i].qor.power_mw, expect[i].qor.power_mw) << i;
    EXPECT_EQ(records[i].qor.delay_ns, expect[i].qor.delay_ns) << i;
  }
}

TEST(Distributed, PermanentFailureAfterMaxAttempts) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 3, 2);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("permfail");
  dopt.max_attempts = 2;
  Coord coord = make_coord(space, dopt);

  dist::WorkerLoopOptions always_fail;
  always_fail.on_eval = [](std::uint64_t, std::uint32_t,
                           const flow::Config&) {
    throw flow::ToolRunError("injected tool crash");
  };
  WorkerThread worker(dopt.socket_path, 2, always_fail);
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));
  const auto records = coord->evaluate_batch(configs);
  const auto stats = coord->stats();
  coord.reset();

  for (const auto& r : records) {
    EXPECT_EQ(r.status, flow::RunStatus::kFailed);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.error, "injected tool crash");
  }
  EXPECT_EQ(stats.runs_failed, configs.size());
  EXPECT_EQ(stats.retries, configs.size());
}

TEST(Distributed, LicenseBrokerBoundsInFlightRuns) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 10, 4);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("lease");
  dopt.license_broker = std::make_shared<flow::LicenseBroker>(2);
  dopt.session_tag = 11;
  Coord coord = make_coord(space, dopt);
  std::vector<std::unique_ptr<WorkerThread>> fleet;
  for (int w = 0; w < 4; ++w) {
    fleet.push_back(std::make_unique<WorkerThread>(dopt.socket_path, 4));
  }
  ASSERT_TRUE(coord->wait_for_workers(4, std::chrono::seconds(5)));
  const auto records = coord->evaluate_batch(configs);
  coord.reset();

  for (const auto& r : records) EXPECT_TRUE(r.ok());
  // Every lease came back, and the broker was exercised once per attempt.
  EXPECT_EQ(dopt.license_broker->available(), 2u);
  EXPECT_EQ(dopt.license_broker->total_grants(), configs.size());
}

TEST(Distributed, DeadlineExpiredWhileQueuedHasZeroAttempts) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 4, 5);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("deadline");
  dopt.run_deadline = std::chrono::milliseconds(60);
  dopt.poll_interval = std::chrono::milliseconds(10);
  Coord coord = make_coord(space, dopt);
  // No workers at all: the deadline (measured from batch submission) fires
  // long before the no-worker grace (left at its 10 s default).
  const auto records = coord->evaluate_batch(configs);
  for (const auto& r : records) {
    EXPECT_EQ(r.status, flow::RunStatus::kTimedOut);
    EXPECT_EQ(r.attempts, 0u);
    EXPECT_EQ(r.error, "deadline expired while queued");
  }
}

TEST(Distributed, WatchdogCancelsHungRunPermanently) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 7, 23);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("watchdog");
  dopt.max_attempts = 3;
  dopt.watchdog_multiple = 2.0;
  // Far above a warm-up run's round trip, so only the hung run trips it.
  dopt.watchdog_floor = std::chrono::milliseconds(200);
  dopt.watchdog_min_samples = 4;
  dopt.poll_interval = std::chrono::milliseconds(10);
  Coord coord = make_coord(space, dopt);

  // The worker's tool hangs while `hang` is set (bounded at 10 s), until
  // the test releases it after the batch returns.
  std::atomic<bool> hang{false};
  std::atomic<int> hung_calls{0};
  dist::WorkerLoopOptions opts;
  opts.on_eval = [&](std::uint64_t, std::uint32_t, const flow::Config&) {
    if (!hang.load()) return;
    hung_calls.fetch_add(1);
    const auto t0 = std::chrono::steady_clock::now();
    while (hang.load() &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  WorkerThread worker(dopt.socket_path, 23, opts);
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));

  // Establish the rolling median with fast, successful runs.
  const auto warmup =
      coord->evaluate_batch({configs.begin(), configs.begin() + 6});
  for (const auto& rec : warmup) ASSERT_TRUE(rec.ok());

  // Now hang: the coordinator cancels by disconnecting the worker, and the
  // cancellation is PERMANENT — one attempt, no retry into another hang.
  hang.store(true);
  const auto records = coord->evaluate_batch({configs[6]});
  const auto stats = coord->stats();
  const auto survivors = coord->worker_count();
  hang.store(false);
  coord.reset();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, flow::RunStatus::kTimedOut);
  EXPECT_EQ(records[0].attempts, 1u);
  EXPECT_NE(records[0].error.find("watchdog"), std::string::npos);
  EXPECT_EQ(hung_calls.load(), 1);
  EXPECT_EQ(stats.runs_watchdog_cancelled, 1u);
  EXPECT_EQ(stats.runs_timed_out, 1u);
  EXPECT_EQ(stats.runs_ok, 6u);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(survivors, 0u);
}

TEST(Distributed, NoWorkersGraceFailsTheBatch) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 2, 6);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("nogrfirst");
  dopt.no_worker_grace = std::chrono::milliseconds(100);
  dopt.poll_interval = std::chrono::milliseconds(10);
  Coord coord = make_coord(space, dopt);
  const auto records = coord->evaluate_batch(configs);
  for (const auto& r : records) {
    EXPECT_EQ(r.status, flow::RunStatus::kFailed);
    EXPECT_EQ(r.error, "no workers available");
  }
}

TEST(Distributed, LedgerResumeServesRecordedRevealsWithNoWorkers) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 8, 8);
  const std::string ledger = std::string(::testing::TempDir()) +
                             "ledger_resume_" + std::to_string(::getpid()) +
                             ".bin";
  std::filesystem::remove(ledger);

  std::uint64_t first_fp = 0;
  {
    dist::DistributedOptions dopt;
    dopt.socket_path = tmp_socket("ledger1");
    dopt.ledger_path = ledger;
    Coord coord = make_coord(space, dopt);
    WorkerThread worker(dopt.socket_path, 8);
    ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));
    first_fp = fingerprint(coord->evaluate_batch(configs));
    coord.reset();
  }

  // Second incarnation: same ledger, ZERO workers. Every outcome must come
  // from the ledger (exactly-once: nothing is re-dispatched), bitwise
  // equal to the first run.
  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("ledger2");
  dopt.ledger_path = ledger;
  dopt.no_worker_grace = std::chrono::milliseconds(200);
  Coord coord = make_coord(space, dopt);
  const auto replayed = coord->evaluate_batch(configs);
  EXPECT_EQ(fingerprint(replayed), first_fp);
  EXPECT_EQ(coord->stats().reveals_replayed, configs.size());
  EXPECT_EQ(coord->stats().attempts, 0u);
  std::filesystem::remove(ledger);
}

TEST(Distributed, LiveCandidatePoolRunsOverTheCoordinator) {
  const auto space = dist::unit_cube_space(3);
  const auto configs = make_batch(space, 10, 12);

  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("pool");
  Coord coord = make_coord(space, dopt);
  WorkerThread worker(dopt.socket_path, 12);
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));

  // The pool neither knows nor cares that reveals cross a process-style
  // boundary: BatchEvaluator is the whole contract.
  tuner::LiveCandidatePool pool(configs, {0, 1, 2}, *coord);
  const auto outcomes = pool.reveal_batch({0, 3, 7});
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok);
  EXPECT_EQ(pool.runs(), 3u);
  coord.reset();

  dist::SyntheticOracle reference(12);
  flow::EvalService local(reference, space);
  tuner::LiveCandidatePool ref_pool(configs, {0, 1, 2}, local);
  const auto ref = ref_pool.reveal_batch({0, 3, 7});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_EQ(outcomes[i].value.size(), ref[i].value.size());
    for (std::size_t k = 0; k < ref[i].value.size(); ++k) {
      EXPECT_EQ(outcomes[i].value[k], ref[i].value[k]);
    }
  }
}

TEST(Distributed, HeartbeatsKeepIdleWorkersAliveAcrossBatches) {
  const auto space = dist::unit_cube_space(3);
  dist::DistributedOptions dopt;
  dopt.socket_path = tmp_socket("hb");
  Coord coord = make_coord(space, dopt);
  dist::WorkerLoopOptions opts;
  opts.heartbeat_interval = std::chrono::milliseconds(20);
  WorkerThread worker(dopt.socket_path, 5, opts);
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));

  const auto first = coord->evaluate_batch(make_batch(space, 3, 5));
  for (const auto& r : first) EXPECT_TRUE(r.ok());
  // Idle gap long enough for several heartbeats; the pump processes them.
  ASSERT_FALSE(coord->wait_for_workers(2, std::chrono::milliseconds(150)));
  const auto second = coord->evaluate_batch(make_batch(space, 3, 50));
  for (const auto& r : second) EXPECT_TRUE(r.ok());
  EXPECT_GE(coord->stats().heartbeats, 1u);
  EXPECT_EQ(coord->worker_count(), 1u);
  coord.reset();
}

// ---- RevealLedger unit behavior -------------------------------------------

TEST(DistributedLedger, RoundTripAndReopen) {
  const std::string path = std::string(::testing::TempDir()) +
                           "ledger_unit_" + std::to_string(::getpid()) +
                           ".bin";
  std::filesystem::remove(path);
  {
    auto ledger = journal::RevealLedger::open(path);
    EXPECT_EQ(ledger->size(), 0u);
    journal::LedgerRecord rec;
    rec.digest = 42;
    rec.attempt = 1;
    rec.status = journal::RevealStatus::kOk;
    rec.attempts = 1;
    rec.elapsed_ms = 12.5;
    rec.values = {1.0, 2.0, 3.0};
    ledger->append(rec);
    rec.digest = 43;
    rec.status = journal::RevealStatus::kFailed;
    rec.values.clear();
    rec.error = "boom";
    ledger->append(rec);
  }
  auto ledger = journal::RevealLedger::open(path);
  EXPECT_FALSE(ledger->truncated());
  EXPECT_EQ(ledger->size(), 2u);
  EXPECT_EQ(ledger->loaded(), 2u);
  const auto* ok = ledger->find(42);
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->ok());
  ASSERT_EQ(ok->values.size(), 3u);
  EXPECT_EQ(ok->values[1], 2.0);
  EXPECT_EQ(ok->elapsed_ms, 12.5);
  const auto* failed = ledger->find(43);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->error, "boom");
  EXPECT_EQ(ledger->find(44), nullptr);
  std::filesystem::remove(path);
}

TEST(DistributedLedger, TornTailIsTruncatedNotTrusted) {
  const std::string path = std::string(::testing::TempDir()) +
                           "ledger_torn_" + std::to_string(::getpid()) +
                           ".bin";
  std::filesystem::remove(path);
  {
    auto ledger = journal::RevealLedger::open(path);
    journal::LedgerRecord rec;
    rec.digest = 1;
    rec.status = journal::RevealStatus::kOk;
    rec.attempts = 1;
    rec.values = {9.0, 8.0, 7.0};
    ledger->append(rec);
    rec.digest = 2;
    ledger->append(rec);
  }
  // Tear the tail mid-record (drop the last 5 bytes), as a crash would.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 5);

  auto ledger = journal::RevealLedger::open(path);
  EXPECT_TRUE(ledger->truncated());
  EXPECT_EQ(ledger->size(), 1u);
  EXPECT_NE(ledger->find(1), nullptr);
  EXPECT_EQ(ledger->find(2), nullptr);

  // The torn bytes were physically removed: appending after the truncation
  // point and reopening yields a clean ledger.
  journal::LedgerRecord rec;
  rec.digest = 3;
  rec.status = journal::RevealStatus::kOk;
  rec.attempts = 1;
  rec.values = {1.0, 1.0, 1.0};
  ledger->append(rec);
  ledger.reset();
  auto reopened = journal::RevealLedger::open(path);
  EXPECT_FALSE(reopened->truncated());
  EXPECT_EQ(reopened->size(), 2u);
  EXPECT_NE(reopened->find(3), nullptr);
  std::filesystem::remove(path);
}

// Format golden: two fixed records must produce this exact file.
TEST(DistributedLedger, TwoRecordFileMatchesFormatGolden) {
  const std::string path = std::string(::testing::TempDir()) +
                           "ledger_golden_" + std::to_string(::getpid()) +
                           ".bin";
  std::filesystem::remove(path);
  {
    auto ledger = journal::RevealLedger::open(path);
    journal::LedgerRecord rec;
    rec.digest = 0x0123456789ABCDEFull;
    rec.attempt = 2;
    rec.status = journal::RevealStatus::kOk;
    rec.attempts = 2;
    rec.elapsed_ms = 31.5;
    rec.values = {10.25, 0.5, 1.75};
    ledger->append(rec);
    rec.digest = 77;
    rec.attempt = 1;
    rec.status = journal::RevealStatus::kTimedOut;
    rec.attempts = 1;
    rec.elapsed_ms = 900.0;
    rec.values.clear();
    rec.error = "deadline exceeded";
    ledger->append(rec);
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  EXPECT_EQ(bytes.size(), 149u);
  EXPECT_EQ(journal::crc32(bytes.data(), bytes.size()), 0xF8B217ACu);
  std::filesystem::remove(path);
}

TEST(DistributedLedger, OversizedValueCountIsAJournalError) {
  // A CRC-valid record whose value count (2^62) cannot fit in the payload
  // must be rejected as corrupt before anything is allocated.
  const std::string path = std::string(::testing::TempDir()) +
                           "ledger_hugecount_" + std::to_string(::getpid()) +
                           ".bin";
  std::filesystem::remove(path);
  {
    auto ledger = journal::RevealLedger::open(path);
    journal::LedgerRecord rec;
    rec.digest = 1;
    rec.status = journal::RevealStatus::kOk;
    rec.attempts = 1;
    rec.values = {1.0, 2.0, 3.0};
    ledger->append(rec);
  }
  auto le = [](std::string& out, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  };
  std::string payload;
  le(payload, 2, 8);           // digest
  le(payload, 1, 4);           // attempt
  le(payload, 0, 1);           // status kOk
  le(payload, 1, 4);           // attempts
  le(payload, 0, 8);           // elapsed_ms
  le(payload, 1ull << 62, 8);  // value count
  std::string body(1, '\x01');  // reveal record kind
  body += payload;
  std::string frame;
  le(frame, payload.size(), 4);
  le(frame, journal::crc32(body.data(), body.size()), 4);
  frame += body;
  std::ofstream(path, std::ios::binary | std::ios::app) << frame;
  EXPECT_THROW(journal::RevealLedger::open(path), journal::JournalError);
  std::filesystem::remove(path);
}

TEST(DistributedLedger, ConfigDigestIsContentKeyed) {
  const flow::Config a = {1.0, 2.0, 3.0};
  const flow::Config b = {1.0, 2.0, 3.0};
  const flow::Config c = {1.0, 2.0, 3.0000000001};
  EXPECT_EQ(dist::config_digest(a), dist::config_digest(b));
  EXPECT_NE(dist::config_digest(a), dist::config_digest(c));
  EXPECT_NE(dist::config_digest({1.0}), dist::config_digest({1.0, 0.0}));
}
