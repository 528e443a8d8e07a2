#include "common/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ppat::common {
namespace {

thread_local bool t_in_pool_task = false;

/// RAII marker so nested parallel constructs detect they are inside a task.
struct InTaskScope {
  bool previous;
  InTaskScope() : previous(t_in_pool_task) { t_in_pool_task = true; }
  ~InTaskScope() { t_in_pool_task = previous; }
};

}  // namespace

struct ThreadPool::Impl {
  std::size_t num_threads = 1;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stopping = false;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      InTaskScope scope;
      task();  // tasks are wrappers that never throw (see submit callers)
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) : impl_(new Impl) {
  impl_->num_threads = std::max<std::size_t>(1, num_threads);
  impl_->workers.reserve(impl_->num_threads - 1);
  for (std::size_t i = 0; i + 1 < impl_->num_threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

std::size_t ThreadPool::num_threads() const { return impl_->num_threads; }

bool ThreadPool::in_worker() { return t_in_pool_task; }

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->queue.push_back(std::move(task));
  }
  impl_->cv.notify_one();
}

// ---- Global pool ----

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

/// Per-thread ScopedPool override; nullptr = use the global singleton.
thread_local ThreadPool* t_current_pool = nullptr;

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

ThreadPool& global_thread_pool() {
  std::lock_guard lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_thread_count());
  return *g_pool;
}

ThreadPool& current_thread_pool() {
  if (t_current_pool != nullptr) return *t_current_pool;
  return global_thread_pool();
}

ScopedPool::ScopedPool(ThreadPool* pool) : previous_(t_current_pool) {
  t_current_pool = pool;
}

ScopedPool::~ScopedPool() { t_current_pool = previous_; }

std::size_t global_thread_count() {
  return global_thread_pool().num_threads();
}

// ---- parallel_for_blocks ----

namespace {

/// Completion latch shared by the blocks of one parallel_for_blocks call.
struct ForkJoinState {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t pending = 0;
  std::exception_ptr error;

  void finish_one(std::exception_ptr e) {
    std::lock_guard lock(mutex);
    if (e && !error) error = std::move(e);
    if (--pending == 0) cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return pending == 0; });
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace

void parallel_for_blocks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_block) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  ThreadPool& pool = current_thread_pool();
  const std::size_t nt = pool.num_threads();
  min_block = std::max<std::size_t>(1, min_block);
  const std::size_t max_blocks = (n + min_block - 1) / min_block;
  const std::size_t nblocks = std::min(nt, max_blocks);
  if (nblocks <= 1 || ThreadPool::in_worker()) {
    fn(begin, end);
    return;
  }

  auto state = std::make_shared<ForkJoinState>();
  state->pending = nblocks;
  // Even split; the first `rem` blocks get one extra element.
  const std::size_t base = n / nblocks;
  const std::size_t rem = n % nblocks;
  std::size_t lo = begin;
  std::size_t first_hi = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t hi = lo + base + (b < rem ? 1 : 0);
    if (b == 0) {
      first_hi = hi;  // caller runs the first block itself
    } else {
      pool.submit([state, &fn, lo, hi] {
        std::exception_ptr e;
        try {
          fn(lo, hi);
        } catch (...) {
          e = std::current_exception();
        }
        state->finish_one(std::move(e));
      });
    }
    lo = hi;
  }
  {
    InTaskScope scope;  // nested parallel work inside fn runs inline
    std::exception_ptr e;
    try {
      fn(begin, first_hi);
    } catch (...) {
      e = std::current_exception();
    }
    state->finish_one(std::move(e));
  }
  state->wait();
}

// ---- TaskGroup ----

struct TaskGroup::State {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t pending = 0;
  std::exception_ptr error;
};

TaskGroup::TaskGroup(ThreadPool* pool)
    : state_(std::make_shared<State>()),
      pool_(pool != nullptr ? pool : &current_thread_pool()) {}

TaskGroup::~TaskGroup() {
  // Tasks hold a shared_ptr to the state, so destruction without wait() is
  // safe; block anyway so in-flight tasks cannot outlive caller locals.
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->pending == 0; });
}

void TaskGroup::run(std::function<void()> fn) {
  if (pool_->num_threads() <= 1 || ThreadPool::in_worker()) {
    // Inline execution, exception still deferred to wait() so control flow
    // matches the threaded path.
    try {
      InTaskScope scope;
      fn();
    } catch (...) {
      std::lock_guard lock(state_->mutex);
      if (!state_->error) state_->error = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard lock(state_->mutex);
    ++state_->pending;
  }
  auto state = state_;
  pool_->submit([state, fn = std::move(fn)] {
    std::exception_ptr e;
    try {
      fn();
    } catch (...) {
      e = std::current_exception();
    }
    std::lock_guard lock(state->mutex);
    if (e && !state->error) state->error = std::move(e);
    if (--state->pending == 0) state->cv.notify_all();
  });
}

void TaskGroup::wait() {
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->pending == 0; });
  if (state_->error) {
    auto e = state_->error;
    state_->error = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace ppat::common
