// Small deterministic thread pool for the surrogate layer.
//
// The tuner's per-objective GP work is embarrassingly parallel (the paper
// models each QoR metric as an independent GP), and the inner linear-algebra
// kernels (Gram assembly, multi-RHS triangular solves) row/column-partition
// cleanly. Both are served by one reusable pool:
//
//   * `parallel_for_blocks` — static block partition over a
//     fixed index range. Every output element is written by exactly one task
//     and each element's arithmetic is independent of the partition, so
//     results are bit-identical for any thread count (including 1).
//   * `TaskGroup` — run a handful of heterogeneous tasks (one per objective)
//     and wait; the first exception thrown by any task is rethrown from
//     `wait()`.
//
// Nested use is safe by construction: work submitted from inside a pool task
// executes inline in the calling thread (no queue re-entry), which both
// avoids deadlock and keeps the worker count bounded. The inline fallback is
// keyed on the CALLING THREAD being a pool worker — of any pool — so a
// worker of pool A that reaches a parallel_for_blocks targeting pool B runs
// inline instead of blocking on B's queue; a pool saturated by other
// sessions can therefore never deadlock a reentrant caller.
//
// A pool of size 1 spawns no threads at all — everything runs inline in the
// caller, byte-for-byte identical to code written as plain loops.
//
// Multi-session use: parallel_for_blocks and TaskGroup route through the
// CALLING THREAD's current pool — the global singleton by default, or a
// per-session pool installed with ScopedPool. A long-running server hosts
// one pool per tuning session and brackets each session's work in a
// ScopedPool on the session thread, so sessions never contend on the global
// pool, which has a fixed size. tuner::run_ppatuner always runs under a ScopedPool (the
// caller's pool or one it owns).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

namespace ppat::common {

/// Fixed-size worker pool. `num_threads` counts the calling thread: a pool
/// of size T spawns T-1 workers and the submitting thread participates in
/// `parallel_for_blocks`, so total CPU concurrency is exactly T.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const;

  /// True when the current thread is executing a task submitted to any
  /// ThreadPool (used to run nested parallel work inline).
  static bool in_worker();

 private:
  friend class TaskGroup;
  friend void parallel_for_blocks(
      std::size_t, std::size_t,
      const std::function<void(std::size_t, std::size_t)>&, std::size_t);

  /// Enqueues a task. Never blocks; the task runs on some worker.
  void submit(std::function<void()> task);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide pool used by the linear-algebra kernels. Created on first
/// use with `std::thread::hardware_concurrency()` threads and never
/// resized: callers that want another size install their own pool with
/// ScopedPool.
ThreadPool& global_thread_pool();
std::size_t global_thread_count();

/// The calling thread's pool: the innermost active ScopedPool override, or
/// the global singleton when none is installed. parallel_for_blocks and
/// TaskGroup's default constructor both route
/// through this, so installing a ScopedPool redirects every nested parallel
/// construct on this thread without threading a pool through call sites.
ThreadPool& current_thread_pool();

/// RAII override of the calling thread's current pool (thread-local, so
/// concurrent sessions on different threads are isolated). Nested scopes
/// stack; destruction restores the previous pool. Pool workers executing
/// submitted tasks run nested parallel work inline (ThreadPool::in_worker),
/// so the override only needs to live on the session's driving thread.
/// Passing nullptr reinstates the global singleton for the scope.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool* pool);
  ~ScopedPool();

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* previous_;
};

/// Runs `fn(lo, hi)` over a static partition of [begin, end) on the calling
/// thread's current pool; blocks until every block is done. Blocks are
/// contiguous, at least
/// `min_block` wide, and at most one per pool thread. Runs inline when the
/// pool has one thread, the range fits one block, or the caller is itself a
/// pool task (nested use). Rethrows the first exception a block throws.
void parallel_for_blocks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t min_block = 1);

/// Runs independent tasks on a pool and waits for all of them. Submission
/// order is preserved when executing inline (pool of one / nested), so a
/// single-threaded TaskGroup is exactly a sequential loop.
class TaskGroup {
 public:
  /// `pool` defaults to the calling thread's current pool (the global
  /// singleton unless a ScopedPool override is active).
  explicit TaskGroup(ThreadPool* pool = nullptr);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn`. If the pool is single-threaded or the caller is a pool
  /// task, `fn` runs immediately on this thread; its exception (if any) is
  /// still deferred to wait().
  void run(std::function<void()> fn);

  /// Blocks until every scheduled task finished; rethrows the first
  /// exception any of them threw.
  void wait();

 private:
  struct State;
  std::shared_ptr<State> state_;
  ThreadPool* pool_;
};

}  // namespace ppat::common
