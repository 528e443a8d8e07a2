// Edge paths of run_ppatuner that benchmark-replay integration tests do not
// pin down: argument validation, init-count clamping, deterministic
// tie-breaking in batch selection, the vanished-intersection midpoint
// collapse, and budget-stop finalization. A scripted surrogate replaces the
// GP so each path is driven deliberately instead of hoping a real model
// wanders into it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "pareto/pareto.hpp"
#include "recording_pool.hpp"
#include "synthetic_benchmark.hpp"
#include "tuner/ppatuner.hpp"

namespace ppat {
namespace {

/// Surrogate with scripted constant predictions. Epoch e (the number of
/// add_observation_batch calls so far, i.e. completed tuner rounds) predicts
/// mean epoch_means[min(e, last)] and variance sd^2 everywhere — so tests
/// control exactly how the uncertainty regions evolve round by round.
class ScriptedSurrogate final : public tuner::Surrogate {
 public:
  ScriptedSurrogate(std::vector<double> epoch_means, double sd)
      : means_(std::move(epoch_means)), sd_(sd) {}

  void fit(const std::vector<linalg::Vector>& xs,
           const linalg::Vector& ys) override {
    (void)xs;
    n_ = ys.size();
  }
  void add_observation(const linalg::Vector&, double) override {
    ++n_;
    ++epoch_;
  }
  void add_observation_batch(const std::vector<linalg::Vector>&,
                             const linalg::Vector& ys) override {
    n_ += ys.size();
    ++epoch_;
  }
  void prepare_refit(common::Rng&) override {}
  void execute_refit() override {}
  void predict_batch(const std::vector<linalg::Vector>& xs,
                     linalg::Vector& means,
                     linalg::Vector& variances) const override {
    const double m = means_[std::min(epoch_, means_.size() - 1)];
    means.assign(xs.size(), m);
    variances.assign(xs.size(), sd_ * sd_);
  }
  std::size_t num_target_points() const override { return n_; }

 private:
  std::vector<double> means_;
  double sd_;
  std::size_t epoch_ = 0;
  std::size_t n_ = 0;
};

tuner::SurrogateFactory scripted_factory(std::vector<double> epoch_means,
                                         double sd) {
  return [epoch_means, sd](std::size_t) {
    return std::make_unique<ScriptedSurrogate>(epoch_means, sd);
  };
}

using testing::RecordingPool;

tuner::PPATunerOptions stub_options() {
  tuner::PPATunerOptions opt;
  opt.num_threads = 1;
  opt.seed = 5;
  opt.refit_every = 100;  // scripted surrogates have nothing to refit
  return opt;
}

/// Indices of the pool's revealed candidates whose golden points are
/// non-dominated among all revealed candidates.
std::vector<std::size_t> revealed_front(
    const tuner::BenchmarkCandidatePool& pool) {
  std::vector<std::size_t> idx;
  std::vector<pareto::Point> pts;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool.is_revealed(i)) {
      idx.push_back(i);
      pts.push_back(pool.golden(i));
    }
  }
  std::vector<std::size_t> front;
  for (std::size_t f : pareto::pareto_front_indices(pts)) {
    front.push_back(idx[f]);
  }
  std::sort(front.begin(), front.end());
  return front;
}

TEST(PPATunerPaths, MaxRunsZeroThrows) {
  const auto set = testing::synthetic_benchmark("paths_zero", 10, 1);
  tuner::BenchmarkCandidatePool pool(&set, tuner::kAreaDelay);
  // Each invalid option is rejected up front: max_runs = 0 leaves nothing
  // to fit on, and refit_every = 0 is a zero divisor in the refit cadence.
  const struct {
    const char* name;
    void (*set)(tuner::PPATunerOptions&);
  } invalid[] = {
      {"max_runs = 0", [](tuner::PPATunerOptions& o) { o.max_runs = 0; }},
      {"refit_every = 0",
       [](tuner::PPATunerOptions& o) { o.refit_every = 0; }},
  };
  for (const auto& c : invalid) {
    SCOPED_TRACE(c.name);
    auto opt = stub_options();
    c.set(opt);
    EXPECT_THROW(run_ppatuner(pool, scripted_factory({0.0}, 1.0), opt),
                 std::invalid_argument);
  }
}

TEST(PPATunerPaths, EmptyPoolThrows) {
  // A pool with zero candidates cannot be tuned: the surrogates would have
  // nothing to fit. The concrete pool already rejects it at construction...
  flow::BenchmarkSet empty;
  empty.space = testing::synthetic_space();
  EXPECT_THROW(tuner::BenchmarkCandidatePool(&empty, tuner::kAreaDelay),
               std::invalid_argument);

  // ...and run_ppatuner guards independently, for pool implementations that
  // do not.
  class EmptyPool final : public tuner::CandidatePool {
   public:
    std::size_t size() const override { return 0; }
    std::size_t num_objectives() const override { return 2; }
    const std::vector<linalg::Vector>& encoded() const override {
      return encoded_;
    }
    const std::vector<std::size_t>& objectives() const override {
      return objectives_;
    }
    std::vector<RevealOutcome> reveal_batch(
        const std::vector<std::size_t>& indices,
        const RevealObserver& = {}) override {
      return std::vector<RevealOutcome>(indices.size());
    }
    bool is_revealed(std::size_t) const override { return false; }
    std::size_t runs() const override { return 0; }

   private:
    std::vector<linalg::Vector> encoded_;
    std::vector<std::size_t> objectives_ = {0, 2};
  } pool;
  EXPECT_THROW(
      run_ppatuner(pool, scripted_factory({0.0}, 1.0), stub_options()),
      std::invalid_argument);
}

TEST(PPATunerPaths, InitCountClampedToAtLeastOneReveal) {
  const auto set = testing::synthetic_benchmark("paths_clamp", 12, 2);
  tuner::BenchmarkCandidatePool pool(&set, tuner::kAreaDelay);
  auto opt = stub_options();
  opt.min_init = 0;
  opt.init_fraction = 0.0;  // floor(0.0 * 12) = 0 — must clamp to 1
  opt.batch_size = 2;
  opt.max_runs = 5;
  const auto result =
      run_ppatuner(pool, scripted_factory({0.0}, 1.0), opt);
  EXPECT_GE(result.tool_runs, 1u);
  EXPECT_LE(result.tool_runs, opt.max_runs);
  EXPECT_FALSE(result.pareto_indices.empty());
}

TEST(PPATunerPaths, TiedDiametersSelectLowestCandidateIndices) {
  const auto set = testing::synthetic_benchmark("paths_ties", 20, 4);
  tuner::BenchmarkCandidatePool bench(&set, tuner::kAreaDelay);
  RecordingPool pool(bench);
  auto opt = stub_options();
  opt.min_init = 4;
  opt.batch_size = 3;
  opt.max_runs = 10;  // init 4 + two rounds of 3
  opt.max_rounds = 5;
  // Constant predictions: every unrevealed candidate has the identical
  // region [-2sd, 2sd] in every round, so all diameters tie exactly.
  run_ppatuner(pool, scripted_factory({0.0, 0.0}, 10.0), opt);

  ASSERT_GE(pool.batches().size(), 3u);
  std::set<std::size_t> revealed(pool.batches()[0].begin(),
                                 pool.batches()[0].end());
  ASSERT_EQ(revealed.size(), 4u);
  for (std::size_t round = 1; round <= 2; ++round) {
    // Expected: the batch_size smallest not-yet-revealed indices, ascending.
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < pool.size() && expected.size() < 3; ++i) {
      if (revealed.count(i) == 0) expected.push_back(i);
    }
    EXPECT_EQ(pool.batches()[round], expected) << "round " << round;
    revealed.insert(expected.begin(), expected.end());
  }
}

TEST(PPATunerPaths, VanishedIntersectionCollapsesToMidpoint) {
  const auto set = testing::synthetic_benchmark("paths_collapse", 24, 6);
  auto opt = stub_options();
  opt.tau = 4.0;  // half-width 2*sd
  opt.min_init = 4;
  opt.batch_size = 3;
  opt.max_runs = 20;
  opt.max_rounds = 10;

  // Round 1 predicts mean -100 (region [-102, -98]); after the first batch
  // fold the script jumps to mean -50 (region [-52, -48]), disjoint from the
  // intersected region — every unrevealed box must collapse to its midpoint
  // (zero diameter) instead of going inside-out, after which the tied
  // degenerate boxes eliminate each other and the run resolves to the
  // revealed candidates only.
  tuner::BenchmarkCandidatePool pool(&set, tuner::kAreaDelay);
  tuner::PPATunerDiagnostics diag;
  const auto result =
      run_ppatuner(pool, scripted_factory({-100.0, -50.0}, 1.0), opt, &diag);

  EXPECT_EQ(diag.undecided, 0u);
  EXPECT_LT(result.tool_runs, opt.max_runs);  // stopped by collapse, not budget
  for (std::size_t i : result.pareto_indices) {
    EXPECT_TRUE(pool.is_revealed(i)) << "unrevealed candidate " << i;
  }
  auto got = result.pareto_indices;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, revealed_front(pool));

  // Control: without the between-round model shift the regions stay wide and
  // the run spends its whole budget — the early stop above is specifically
  // the collapse path, not an artifact of the scripted surrogate.
  tuner::BenchmarkCandidatePool control_pool(&set, tuner::kAreaDelay);
  tuner::PPATunerDiagnostics control_diag;
  const auto control = run_ppatuner(
      control_pool, scripted_factory({-100.0, -100.0}, 1.0), opt,
      &control_diag);
  EXPECT_EQ(control.tool_runs, opt.max_runs);
  EXPECT_GT(control_diag.undecided, 0u);
}

TEST(PPATunerPaths, BudgetStopAlwaysKeepsRevealedParetoPoints) {
  const auto set = testing::synthetic_benchmark("paths_budget", 30, 8);
  tuner::BenchmarkCandidatePool pool(&set, tuner::kAreaDelay);
  auto opt = stub_options();
  opt.min_init = 5;
  opt.max_runs = 5;  // budget exhausted by initialization: zero rounds
  tuner::PPATunerDiagnostics diag;
  const auto result =
      run_ppatuner(pool, scripted_factory({0.0}, 1.0), opt, &diag);

  EXPECT_EQ(diag.rounds, 0u);
  EXPECT_EQ(result.tool_runs, 5u);
  // Every revealed non-dominated candidate is in the answer even though the
  // loop never ran a classification round.
  std::set<std::size_t> got(result.pareto_indices.begin(),
                            result.pareto_indices.end());
  for (std::size_t i : revealed_front(pool)) {
    EXPECT_TRUE(got.count(i)) << "revealed Pareto point " << i << " dropped";
  }
}

}  // namespace
}  // namespace ppat
