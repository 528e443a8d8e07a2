// flow::LicenseBroker: shared fair license pool for multi-session tuning.
// The load-bearing properties: leases are RAII (NO outcome of an eval can
// leak a license — the satellite bugfix this PR pins down), accounting is
// exact, and grants are deterministically fair (fewest-outstanding-first),
// not wakeup-order lottery.
#include "flow/license_broker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "flow/eval_service.hpp"
#include "sample/sampling.hpp"
#include "synthetic_benchmark.hpp"

namespace ppat::flow {
namespace {

TEST(LicenseBroker, AccountingRoundTrip) {
  LicenseBroker broker(3);
  EXPECT_EQ(broker.total(), 3u);
  EXPECT_EQ(broker.available(), 3u);
  {
    auto a = broker.acquire(1);
    auto b = broker.acquire(1);
    auto c = broker.acquire(2);
    EXPECT_EQ(broker.available(), 0u);
    EXPECT_EQ(broker.outstanding(), 3u);
    EXPECT_EQ(broker.outstanding_for(1), 2u);
    EXPECT_EQ(broker.outstanding_for(2), 1u);
    c.release();
    EXPECT_EQ(broker.available(), 1u);
    c.release();  // idempotent: double release must not double-credit
    EXPECT_EQ(broker.available(), 1u);
  }
  // Leases released by scope exit.
  EXPECT_EQ(broker.available(), 3u);
  EXPECT_EQ(broker.outstanding(), 0u);
  EXPECT_EQ(broker.outstanding_for(1), 0u);
}

TEST(LicenseBroker, MoveTransfersOwnershipWithoutDoubleRelease) {
  LicenseBroker broker(1);
  {
    LicenseBroker::Lease outer;
    {
      auto inner = broker.acquire(9);
      outer = std::move(inner);
      // The moved-from lease dying here must not release anything.
    }
    EXPECT_EQ(broker.available(), 0u);
  }
  EXPECT_EQ(broker.available(), 1u);
}

TEST(LicenseBroker, GrantsPreferTheSessionWithFewestOutstanding) {
  LicenseBroker broker(4);
  auto h1 = broker.acquire(1);
  auto h2 = broker.acquire(1);
  auto h3 = broker.acquire(1);  // session 1 hogs three licenses
  auto l1 = broker.acquire(2);  // session 2 holds one

  // Both sessions queue one waiter each while the pool is empty.
  std::atomic<bool> hog_granted{false}, light_granted{false};
  std::thread hog([&] {
    auto lease = broker.acquire(1);
    hog_granted.store(true);
    lease.release();
  });
  std::thread light([&] {
    auto lease = broker.acquire(2);
    light_granted.store(true);
    // Hold it until the hog got its grant, so the outstanding counts keep
    // favoring the hog for the SECOND freed license.
    while (!hog_granted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(hog_granted.load());
  EXPECT_FALSE(light_granted.load());

  // One license frees: fairness says session 2 (1 outstanding) beats
  // session 1 (3 outstanding), regardless of which thread wakes first.
  h1.release();
  while (!light_granted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(hog_granted.load());  // still waiting: 2 vs 2 after grant,
                                     // but session 1 holds 2 more
  h2.release();  // second freed license reaches the remaining waiter
  hog.join();
  light.join();
  EXPECT_TRUE(hog_granted.load());
  h3.release();
  l1.release();
  EXPECT_EQ(broker.available(), broker.total());
}

/// Oracle that fails (throws) on a deterministic schedule and sleeps a hair
/// so watchdog/deadline machinery has something to time.
class FaultyOracle final : public QorOracle {
 public:
  QoR evaluate(const ParameterSpace& space, const Config& config) override {
    const std::size_t n = calls_.fetch_add(1);
    if (n % 3 != 2) {  // two of every three attempts fail
      throw ToolRunError("injected tool crash #" + std::to_string(n));
    }
    ++runs_;
    return ppat::testing::synthetic_qor(space.encode(config));
  }
  std::size_t run_count() const override { return runs_; }

 private:
  std::atomic<std::size_t> calls_{0};
  std::atomic<std::size_t> runs_{0};
};

// The satellite leak test: ~1k faulty evaluations — crashes, retries,
// deadline timeouts, successes — through two concurrent sessions sharing
// one broker. Every path must hand its lease back: afterwards the broker
// reads exactly max licenses available and zero outstanding.
TEST(LicenseBroker, NoLeakAcrossAThousandFaultyEvals) {
  const auto space = ppat::testing::synthetic_space();
  auto broker = std::make_shared<LicenseBroker>(3);

  auto run_session = [&](std::uint64_t tag, std::uint64_t seed,
                         bool with_deadline) {
    common::Rng rng(seed);
    const auto unit = sample::latin_hypercube(500, space.size(), rng);
    std::vector<Config> configs;
    configs.reserve(unit.size());
    for (const auto& u : unit) configs.push_back(space.decode(u));

    FaultyOracle oracle;
    EvalServiceOptions opt;
    opt.licenses = 4;
    opt.max_attempts = 2;
    opt.license_broker = broker;
    opt.session_tag = tag;
    if (with_deadline) {
      // A deadline this tight expires runs while they queue for a license,
      // exercising the timed-out-while-waiting release path.
      opt.run_deadline = std::chrono::milliseconds(40);
    }
    EvalService service(oracle, space, opt);
    // 500 configs x up to 2 attempts each per session.
    const auto records = service.evaluate_batch(configs);
    ASSERT_EQ(records.size(), configs.size());
  };

  std::thread s1([&] { run_session(1, 101, false); });
  std::thread s2([&] { run_session(2, 102, true); });
  s1.join();
  s2.join();

  EXPECT_EQ(broker->available(), broker->total());
  EXPECT_EQ(broker->outstanding(), 0u);
  EXPECT_EQ(broker->outstanding_for(1), 0u);
  EXPECT_EQ(broker->outstanding_for(2), 0u);
  // Per-session accounting is reclaimed on idle (grants_for reads 0 again),
  // but the lifetime counter proves the broker really served the storm.
  EXPECT_EQ(broker->grants_for(1), 0u);
  EXPECT_GT(broker->total_grants(), 500u);
}

// try_acquire is the coordinator's non-blocking path: it must grant when a
// license is genuinely free, refuse at exhaustion, and refuse whenever any
// OTHER session is blocked in acquire() — a poller never starves a waiter.
TEST(LicenseBroker, TryAcquireGrantsRefusesAndYieldsToWaiters) {
  LicenseBroker broker(2);

  auto a = broker.try_acquire(1);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(broker.available(), 1u);
  auto b = broker.try_acquire(1);
  EXPECT_TRUE(b.valid());

  // Exhausted: a poll comes back empty instead of sleeping.
  auto c = broker.try_acquire(1);
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(broker.available(), 0u);

  // Session 2 blocks in acquire(); once it is waiting, a freed license must
  // go to it, not to a concurrently polling session 1. The waiter holds its
  // lease until the poll is done, so the poll cannot see a license the
  // waiter already took and gave back.
  std::atomic<bool> waiter_got_lease{false};
  std::atomic<bool> polled{false};
  std::thread waiter([&] {
    auto lease = broker.acquire(2);
    waiter_got_lease.store(true);
    while (!polled.load()) std::this_thread::yield();
    lease.release();
  });
  while (broker.waiting_for(2) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  a.release();  // one license free, but session 2 is queued for it
  auto d = broker.try_acquire(1);
  EXPECT_FALSE(d.valid());
  polled.store(true);
  waiter.join();
  EXPECT_TRUE(waiter_got_lease.load());

  // With no waiters left, polling works again.
  auto e = broker.try_acquire(1);
  EXPECT_TRUE(e.valid());
  e.release();
  b.release();
  EXPECT_EQ(broker.available(), broker.total());
}

// Broker-governed evaluation must not change WHAT is computed — only when.
// Same batch with and without a broker: identical records.
TEST(LicenseBroker, BrokeredResultsMatchUnbrokeredBitwise) {
  const auto space = ppat::testing::synthetic_space();
  common::Rng rng(7);
  const auto unit = sample::latin_hypercube(40, space.size(), rng);
  std::vector<Config> configs;
  for (const auto& u : unit) configs.push_back(space.decode(u));

  ppat::testing::SyntheticOracle plain_oracle;
  EvalServiceOptions plain_opt;
  plain_opt.licenses = 3;
  EvalService plain(plain_oracle, space, plain_opt);
  const auto want = plain.evaluate_batch(configs);

  ppat::testing::SyntheticOracle brokered_oracle;
  EvalServiceOptions brokered_opt;
  brokered_opt.licenses = 3;
  brokered_opt.license_broker = std::make_shared<LicenseBroker>(2);
  brokered_opt.session_tag = 5;
  EvalService brokered(brokered_oracle, space, brokered_opt);
  const auto got = brokered.evaluate_batch(configs);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].ok(), want[i].ok()) << "record " << i;
    EXPECT_EQ(got[i].qor.area_um2, want[i].qor.area_um2);
    EXPECT_EQ(got[i].qor.power_mw, want[i].qor.power_mw);
    EXPECT_EQ(got[i].qor.delay_ns, want[i].qor.delay_ns);
  }
}

}  // namespace
}  // namespace ppat::flow
