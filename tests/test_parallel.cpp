#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "synthetic_benchmark.hpp"
#include "tuner/ppatuner.hpp"

namespace ppat::common {
namespace {

// Each test runs its parallel work on a pool of its own, installed on the
// test thread with ScopedPool; the process-wide pool keeps its size.
class ParallelTest : public ::testing::Test {
 protected:
  ThreadPool pool_{4};
  ScopedPool scope_{&pool_};
};

TEST_F(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
  ASSERT_EQ(current_thread_pool().num_threads(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_blocks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, ParallelForBlocksPartitionIsExact) {
  ThreadPool three(3);
  ScopedPool scope(&three);
  std::atomic<long> total{0};
  parallel_for_blocks(
      5, 105,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        long s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += static_cast<long>(i);
        total.fetch_add(s);
      },
      8);
  long expect = 0;
  for (long i = 5; i < 105; ++i) expect += i;
  EXPECT_EQ(total.load(), expect);
}

TEST_F(ParallelTest, ParallelForPropagatesExceptions) {
  EXPECT_THROW(parallel_for_blocks(0, 100,
                                   [](std::size_t lo, std::size_t hi) {
                                     if (lo <= 37 && 37 < hi) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
               std::runtime_error);
  // The pool must remain usable after a throwing run.
  std::atomic<int> ok{0};
  parallel_for_blocks(0, 10, [&](std::size_t lo, std::size_t hi) {
    ok.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ok.load(), 10);
}

TEST_F(ParallelTest, TaskGroupPropagatesFirstException) {
  TaskGroup group;
  std::atomic<int> done{0};
  group.run([&] { done.fetch_add(1); });
  group.run([] { throw std::logic_error("task failed"); });
  group.run([&] { done.fetch_add(1); });
  EXPECT_THROW(group.wait(), std::logic_error);
  EXPECT_EQ(done.load(), 2);
}

TEST_F(ParallelTest, NestedParallelWorkRunsInlineWithoutDeadlock) {
  std::atomic<int> total{0};
  TaskGroup group;
  for (int t = 0; t < 4; ++t) {
    group.run([&total] {
      // A pool task issuing its own parallel_for_blocks must not re-enter
      // the queue (deadlock risk with all workers busy); it runs inline.
      parallel_for_blocks(0, 100, [&total](std::size_t lo, std::size_t hi) {
        total.fetch_add(static_cast<int>(hi - lo));
      });
    });
  }
  group.wait();
  EXPECT_EQ(total.load(), 400);
}

TEST_F(ParallelTest, SingleThreadRunsInlineInOrder) {
  ThreadPool one(1);
  ScopedPool scope(&one);
  std::vector<std::size_t> order;
  // No pool threads exist, so unsynchronized appends are safe iff the work
  // really runs inline — and in ascending order.
  parallel_for_blocks(0, 50, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  std::vector<int> sequence;
  TaskGroup group;
  for (int t = 0; t < 5; ++t) {
    group.run([&sequence, t] { sequence.push_back(t); });
  }
  group.wait();
  EXPECT_EQ(sequence, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(ParallelTest, EmptyRangeAndEmptyGroupAreNoOps) {
  parallel_for_blocks(10, 10, [](std::size_t, std::size_t) {
    FAIL() << "must not run";
  });
  TaskGroup group;
  group.wait();  // nothing scheduled
}

TEST_F(ParallelTest, ScopedPoolRedirectsParallelWorkOnThisThread) {
  ASSERT_EQ(&current_thread_pool(), &pool_);
  ThreadPool session_pool(3);
  {
    ScopedPool scope(&session_pool);
    EXPECT_EQ(&current_thread_pool(), &session_pool);
    // Work routed through the override must still cover the range exactly.
    std::vector<std::atomic<int>> hits(500);
    parallel_for_blocks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
    {
      ScopedPool inner(nullptr);  // nested scope: back to the singleton
      EXPECT_EQ(&current_thread_pool(), &global_thread_pool());
    }
    EXPECT_EQ(&current_thread_pool(), &session_pool);
  }
  EXPECT_EQ(&current_thread_pool(), &pool_);
}

TEST_F(ParallelTest, ScopedPoolIsThreadLocalAcrossConcurrentSessions) {
  ThreadPool pool_a(2);
  ThreadPool pool_b(2);
  // Two "session threads" install different pools concurrently; neither
  // must observe the other's override.
  std::atomic<bool> a_ok{false}, b_ok{false};
  std::thread ta([&] {
    ScopedPool scope(&pool_a);
    a_ok = &current_thread_pool() == &pool_a;
  });
  std::thread tb([&] {
    ScopedPool scope(&pool_b);
    b_ok = &current_thread_pool() == &pool_b;
  });
  ta.join();
  tb.join();
  EXPECT_TRUE(a_ok.load());
  EXPECT_TRUE(b_ok.load());
  EXPECT_EQ(&current_thread_pool(), &pool_);
}

TEST_F(ParallelTest, CrossPoolNestedWorkRunsInlineUnderSaturation) {
  // Satellite regression (reentrancy fix): a worker of pool A reaching a
  // parallel_for_blocks while pool B is saturated — or targeting its own saturated
  // pool — must fall back to inline execution (ThreadPool::in_worker), not
  // block on a queue that can never drain. Before the fix this deadlocked
  // under multi-session contention; with it, the test completes.
  ThreadPool session_pool(2);
  std::atomic<int> total{0};
  TaskGroup outer(&session_pool);
  for (int t = 0; t < 8; ++t) {  // 4x oversubscribed: the pool IS saturated
    outer.run([&total] {
      EXPECT_TRUE(ThreadPool::in_worker());
      // Nested constructs from a worker: both the block and the grouped
      // form, targeting the worker thread's current pool, the global one (a
      // DIFFERENT pool than the one this worker belongs to).
      parallel_for_blocks(0, 50, [&total](std::size_t lo, std::size_t hi) {
        total.fetch_add(static_cast<int>(hi - lo));
      });
      TaskGroup inner;
      for (int k = 0; k < 3; ++k) {
        inner.run([&total] { total.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(total.load(), 8 * (50 + 3));
}

}  // namespace
}  // namespace ppat::common

namespace ppat::tuner {
namespace {

// The acceptance property for the threaded tuner: thread count is invisible
// in the results. Randomness is drawn serially in prepare_refit and all
// parallel partitions are bit-stable, so any num_threads must reproduce the
// single-threaded run exactly.
TEST(PpaTunerThreading, ThreadCountDoesNotChangeResults) {
  const flow::BenchmarkSet source =
      testing::synthetic_benchmark("src", 150, 11, 0.15);
  const flow::BenchmarkSet target =
      testing::synthetic_benchmark("tgt", 200, 12, 0.0);
  const SourceData source_data =
      SourceData::from_benchmark(source, kPowerDelay, 100, 5);

  PPATunerOptions serial;
  serial.seed = 21;
  serial.max_runs = 40;
  serial.num_threads = 1;
  PPATunerOptions threaded = serial;
  threaded.num_threads = 4;

  BenchmarkCandidatePool pool_serial(&target, kPowerDelay);
  BenchmarkCandidatePool pool_threaded(&target, kPowerDelay);
  const auto rs = run_ppatuner(
      pool_serial, make_transfer_gp_factory(source_data), serial);
  const auto rt = run_ppatuner(
      pool_threaded, make_transfer_gp_factory(source_data), threaded);

  EXPECT_EQ(rs.pareto_indices, rt.pareto_indices);
  EXPECT_EQ(rs.tool_runs, rt.tool_runs);
}

TEST(PpaTunerThreading, PlainGpThreadCountDoesNotChangeResults) {
  const flow::BenchmarkSet target =
      testing::synthetic_benchmark("tgt", 160, 13, 0.0);

  PPATunerOptions serial;
  serial.seed = 22;
  serial.max_runs = 30;
  serial.num_threads = 1;
  PPATunerOptions threaded = serial;
  threaded.num_threads = 3;

  BenchmarkCandidatePool pool_serial(&target, kPowerDelay);
  BenchmarkCandidatePool pool_threaded(&target, kPowerDelay);
  const auto rs = run_ppatuner(pool_serial, make_plain_gp_factory(), serial);
  const auto rt = run_ppatuner(pool_threaded, make_plain_gp_factory(),
                               threaded);

  EXPECT_EQ(rs.pareto_indices, rt.pareto_indices);
  EXPECT_EQ(rs.tool_runs, rt.tool_runs);
}

TEST(PpaTunerThreading, RunOwnsItsPoolAndLeavesGlobalPoolAlone) {
  const flow::BenchmarkSet target =
      testing::synthetic_benchmark("tgt", 160, 14, 0.0);
  const std::size_t before = common::global_thread_count();

  PPATunerOptions serial;
  serial.seed = 23;
  serial.max_runs = 30;
  serial.num_threads = 1;
  PPATunerOptions threaded = serial;
  threaded.num_threads = 2;

  BenchmarkCandidatePool pool_serial(&target, kPowerDelay);
  BenchmarkCandidatePool pool_threaded(&target, kPowerDelay);
  const auto rs = run_ppatuner(pool_serial, make_plain_gp_factory(), serial);
  const std::size_t after_serial = common::global_thread_count();
  const auto rt = run_ppatuner(pool_threaded, make_plain_gp_factory(),
                               threaded);
  const std::size_t after_threaded = common::global_thread_count();

  EXPECT_EQ(after_serial, before);
  EXPECT_EQ(after_threaded, before);
  EXPECT_EQ(rs.pareto_indices, rt.pareto_indices);
  EXPECT_EQ(rs.tool_runs, rt.tool_runs);
  for (std::size_t i = 0; i < pool_serial.size(); ++i) {
    EXPECT_EQ(pool_serial.is_revealed(i), pool_threaded.is_revealed(i)) << i;
  }
}

}  // namespace
}  // namespace ppat::tuner
