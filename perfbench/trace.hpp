// In-memory spans and counters for the end-to-end benchmark, plus the
// decorators that time the library's layers from outside.
//
// Every span is taken around a call into a public interface: a
// tuner::Surrogate method, a flow::QorOracle::evaluate, or a
// flow::BatchEvaluator::evaluate_batch. The decorators forward every
// virtual, so a wrapped object computes exactly what the bare one does;
// the traced run checks that by reproducing the untraced run's fronts and
// run counts. Spans stay in memory and are written out when the process
// ends (e2e.cpp).
//
// Wrapping hides two things from dynamic_casts inside the library. Neither
// changes a result:
//   * run_ppatuner fills PPATunerDiagnostics::task_correlations by casting
//     each model to TransferGpSurrogate, so a traced run reports none;
//   * EvalService routes runs through CancellableOracle only when the
//     oracle is one; it matters only to the watchdog, which is off here.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "flow/eval_service.hpp"
#include "tuner/surrogate.hpp"

namespace perfbench {

/// Seconds since the first call in this process (steady clock).
inline double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< enclosing span on the same thread; 0 = none
};

/// Process-wide span and counter store. Off unless enable() is called,
/// which must happen before any other thread starts; while off, a
/// ScopedSpan reads no clock and takes no lock.
class Trace {
 public:
  static Trace& get() {
    static Trace trace;
    return trace;
  }

  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  void record(Span span) {
    std::lock_guard lock(mutex_);
    spans_.push_back(std::move(span));
  }
  /// Adds to a named counter (no-op while tracing is off).
  void add(const std::string& counter, double value) {
    if (!enabled_) return;
    std::lock_guard lock(mutex_);
    counters_[counter] += value;
  }

  std::vector<Span> spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }
  std::map<std::string, double> counters() const {
    std::lock_guard lock(mutex_);
    return counters_;
  }

 private:
  Trace() = default;

  bool enabled_ = false;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// Records [construction, destruction) as one span when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) {
    Trace& trace = Trace::get();
    if (!trace.enabled()) return;
    active_ = true;
    span_.name.assign(name);
    span_.id = trace.next_id();
    span_.parent = current();
    current() = span_.id;
    span_.start = now_s();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end = now_s();
    current() = span_.parent;
    Trace::get().record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::uint64_t& current() {
    thread_local std::uint64_t id = 0;
    return id;
  }

  Span span_;
  bool active_ = false;
};

/// Times every Surrogate call: surrogate.{fit,append,refit,predict}.
/// prepare_refit is folded into surrogate.refit.
class TracedSurrogate final : public ppat::tuner::Surrogate {
 public:
  explicit TracedSurrogate(std::unique_ptr<ppat::tuner::Surrogate> inner)
      : inner_(std::move(inner)) {}

  void fit(const std::vector<ppat::linalg::Vector>& xs,
           const ppat::linalg::Vector& ys) override {
    ScopedSpan span("surrogate.fit");
    inner_->fit(xs, ys);
    Trace::get().add("surrogate.fits", 1);
  }
  void add_observation(const ppat::linalg::Vector& x, double y) override {
    ScopedSpan span("surrogate.append");
    inner_->add_observation(x, y);
    Trace::get().add("surrogate.appends", 1);
  }
  void add_observation_batch(const std::vector<ppat::linalg::Vector>& xs,
                             const ppat::linalg::Vector& ys) override {
    ScopedSpan span("surrogate.append");
    inner_->add_observation_batch(xs, ys);
    Trace::get().add("surrogate.appends", static_cast<double>(xs.size()));
  }
  void prepare_refit(ppat::common::Rng& rng) override {
    ScopedSpan span("surrogate.refit");
    inner_->prepare_refit(rng);
  }
  void execute_refit() override {
    ScopedSpan span("surrogate.refit");
    inner_->execute_refit();
    Trace::get().add("surrogate.refits", 1);
  }
  void predict_batch(const std::vector<ppat::linalg::Vector>& xs,
                     ppat::linalg::Vector& means,
                     ppat::linalg::Vector& variances) const override {
    ScopedSpan span("surrogate.predict");
    inner_->predict_batch(xs, means, variances);
    Trace::get().add("surrogate.predicted_points",
                     static_cast<double>(xs.size()));
  }
  void predict_batch_cached(const std::vector<std::size_t>& ids,
                            const std::vector<ppat::linalg::Vector>& xs,
                            ppat::linalg::Vector& means,
                            ppat::linalg::Vector& variances) override {
    ScopedSpan span("surrogate.predict");
    inner_->predict_batch_cached(ids, xs, means, variances);
    Trace::get().add("surrogate.predicted_points",
                     static_cast<double>(xs.size()));
  }
  void set_tiled_prediction(bool enabled) override {
    inner_->set_tiled_prediction(enabled);
  }
  std::size_t num_target_points() const override {
    return inner_->num_target_points();
  }

 private:
  std::unique_ptr<ppat::tuner::Surrogate> inner_;
};

inline ppat::tuner::SurrogateFactory traced_factory(
    ppat::tuner::SurrogateFactory factory) {
  return [factory = std::move(factory)](std::size_t objective)
             -> std::unique_ptr<ppat::tuner::Surrogate> {
    return std::make_unique<TracedSurrogate>(factory(objective));
  };
}

/// Non-owning oracle that times each evaluate() as `<layer>.eval` and
/// stamps its completion time. Used untraced too, where the span is a
/// no-op: flow::build_or_load and SessionConfig::make_oracle want an oracle
/// they own, while the benchmark builds its tools during set-up.
class TimedOracle final : public ppat::flow::QorOracle {
 public:
  TimedOracle(ppat::flow::QorOracle& inner, std::string layer,
              std::vector<double>* completions = nullptr)
      : inner_(inner), span_(std::move(layer) + ".eval"),
        completions_(completions) {}

  ppat::flow::QoR evaluate(const ppat::flow::ParameterSpace& space,
                           const ppat::flow::Config& config) override {
    ppat::flow::QoR qor;
    {
      ScopedSpan span(span_);
      qor = inner_.evaluate(space, config);
    }
    if (completions_ != nullptr) completions_->push_back(now_s());
    return qor;
  }
  std::size_t run_count() const override { return inner_.run_count(); }

 private:
  ppat::flow::QorOracle& inner_;
  std::string span_;
  std::vector<double>* completions_;  ///< single-threaded callers only
};

/// Times each evaluate_batch as eval.batch. `on_close` runs before an owned
/// evaluator is destroyed (to read its stats while it still exists).
class TracedEvaluator final : public ppat::flow::BatchEvaluator {
 public:
  explicit TracedEvaluator(ppat::flow::BatchEvaluator& inner) : inner_(inner) {}
  TracedEvaluator(std::unique_ptr<ppat::flow::BatchEvaluator> owned,
                  std::function<void()> on_close)
      : inner_(*owned), owned_(std::move(owned)),
        on_close_(std::move(on_close)) {}
  ~TracedEvaluator() override {
    if (on_close_) on_close_();
  }
  TracedEvaluator(const TracedEvaluator&) = delete;
  TracedEvaluator& operator=(const TracedEvaluator&) = delete;

  std::vector<ppat::flow::RunRecord> evaluate_batch(
      const std::vector<ppat::flow::Config>& configs,
      const RunObserver& observer) override {
    ScopedSpan span("eval.batch");
    return inner_.evaluate_batch(configs, observer);
  }
  using ppat::flow::BatchEvaluator::evaluate_batch;
  const ppat::flow::ParameterSpace& space() const override {
    return inner_.space();
  }

 private:
  ppat::flow::BatchEvaluator& inner_;
  std::unique_ptr<ppat::flow::BatchEvaluator> owned_;
  std::function<void()> on_close_;
};

}  // namespace perfbench
