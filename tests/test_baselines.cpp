#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include "baselines/aspdac20.hpp"
#include "baselines/dac19.hpp"
#include "baselines/mlcad19.hpp"
#include "baselines/tcad19.hpp"
#include "common/parallel.hpp"
#include "recording_pool.hpp"
#include "synthetic_benchmark.hpp"

namespace ppat::baselines {
namespace {

using tuner::BenchmarkCandidatePool;
using tuner::evaluate_result;
using tuner::kPowerDelay;
using tuner::SourceData;

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest()
      : source_(ppat::testing::synthetic_benchmark("src", 150, 21, 0.15)),
        target_(ppat::testing::synthetic_benchmark("tgt", 200, 22, 0.0)),
        source_data_(SourceData::from_benchmark(source_, kPowerDelay, 100,
                                                5)) {}

  flow::BenchmarkSet source_, target_;
  SourceData source_data_;
};

TEST_F(BaselinesTest, Tcad19FindsReasonableFront) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Tcad19Options opt;
  opt.seed = 1;
  opt.max_runs = 80;
  const auto result = run_tcad19(pool, opt);
  ASSERT_FALSE(result.pareto_indices.empty());
  EXPECT_LE(result.tool_runs, 80u);
  const auto q = evaluate_result(pool, result);
  EXPECT_LT(q.hv_error, 0.35);
}

TEST_F(BaselinesTest, Mlcad19RunsToBudget) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Mlcad19Options opt;
  opt.seed = 2;
  opt.budget = 60;
  const auto result = run_mlcad19(pool, opt);
  EXPECT_EQ(result.tool_runs, 60u);
  const auto q = evaluate_result(pool, result);
  EXPECT_LT(q.hv_error, 0.35);
  EXPECT_LT(q.adrs, 0.2);
}

TEST_F(BaselinesTest, Mlcad19AnswerIsNonDominatedSubsetOfRevealed) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Mlcad19Options opt;
  opt.seed = 3;
  opt.budget = 40;
  const auto result = run_mlcad19(pool, opt);
  for (std::size_t i : result.pareto_indices) {
    EXPECT_TRUE(pool.is_revealed(i));
  }
  // Non-dominated among themselves.
  for (std::size_t i : result.pareto_indices) {
    for (std::size_t j : result.pareto_indices) {
      if (i == j) continue;
      EXPECT_FALSE(pareto::dominates(pool.golden(j), pool.golden(i)));
    }
  }
}

TEST_F(BaselinesTest, Dac19UsesSourceAndImproves) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Dac19Options opt;
  opt.seed = 4;
  opt.budget = 60;
  const auto result = run_dac19(pool, &source_data_, opt);
  EXPECT_LE(result.tool_runs, 60u);
  const auto q = evaluate_result(pool, result);
  EXPECT_LT(q.hv_error, 0.35);
}

TEST_F(BaselinesTest, Dac19WorksWithoutSource) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Dac19Options opt;
  opt.seed = 5;
  opt.budget = 50;
  const auto result = run_dac19(pool, nullptr, opt);
  ASSERT_FALSE(result.pareto_indices.empty());
  EXPECT_LE(result.tool_runs, 50u);
}

TEST_F(BaselinesTest, Aspdac20RunsBothPhases) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Aspdac20Options opt;
  opt.seed = 6;
  opt.budget = 60;
  const auto result = run_aspdac20(pool, &source_data_, opt);
  EXPECT_LE(result.tool_runs, 60u);
  ASSERT_FALSE(result.pareto_indices.empty());
  const auto q = evaluate_result(pool, result);
  EXPECT_LT(q.hv_error, 0.35);
}

TEST_F(BaselinesTest, Aspdac20WorksWithoutSource) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Aspdac20Options opt;
  opt.seed = 7;
  opt.budget = 40;
  const auto result = run_aspdac20(pool, nullptr, opt);
  ASSERT_FALSE(result.pareto_indices.empty());
}

TEST_F(BaselinesTest, Aspdac20StaysWithinABudgetBelowItsExplorationFloor) {
  // The exploration phase takes at least 4 runs; a smaller budget caps it.
  for (const std::size_t budget : {1u, 2u, 3u}) {
    BenchmarkCandidatePool pool(&target_, kPowerDelay);
    Aspdac20Options opt;
    opt.budget = budget;
    EXPECT_EQ(run_aspdac20(pool, &source_data_, opt).tool_runs, budget);
  }
}

TEST_F(BaselinesTest, AllBaselinesDeterministicGivenSeed) {
  auto run_twice_and_compare = [this](auto&& runner) {
    BenchmarkCandidatePool pool_a(&target_, kPowerDelay);
    BenchmarkCandidatePool pool_b(&target_, kPowerDelay);
    const auto ra = runner(pool_a);
    const auto rb = runner(pool_b);
    EXPECT_EQ(ra.pareto_indices, rb.pareto_indices);
    EXPECT_EQ(ra.tool_runs, rb.tool_runs);
  };
  run_twice_and_compare([](BenchmarkCandidatePool& p) {
    Mlcad19Options o;
    o.seed = 8;
    o.budget = 30;
    return run_mlcad19(p, o);
  });
  run_twice_and_compare([this](BenchmarkCandidatePool& p) {
    Dac19Options o;
    o.seed = 8;
    o.budget = 30;
    return run_dac19(p, &source_data_, o);
  });
  run_twice_and_compare([this](BenchmarkCandidatePool& p) {
    Aspdac20Options o;
    o.seed = 8;
    o.budget = 30;
    return run_aspdac20(p, &source_data_, o);
  });
}

TEST_F(BaselinesTest, RefitEveryZeroThrows) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Tcad19Options tcad;
  tcad.refit_every = 0;
  EXPECT_THROW(run_tcad19(pool, tcad), std::invalid_argument);
  Mlcad19Options mlcad;
  mlcad.refit_every = 0;
  EXPECT_THROW(run_mlcad19(pool, mlcad), std::invalid_argument);
  EXPECT_EQ(pool.runs(), 0u);
}

/// Fails every `period`-th candidate permanently, as a live pool whose tool
/// runs exhaust their retries does; forwards everything else to `inner`.
class FailingPool final : public tuner::CandidatePool {
 public:
  FailingPool(BenchmarkCandidatePool& inner, std::size_t period)
      : inner_(inner), period_(period) {}

  bool fails(std::size_t i) const { return i % period_ == 0; }

  std::size_t size() const override { return inner_.size(); }
  std::size_t num_objectives() const override {
    return inner_.num_objectives();
  }
  const std::vector<linalg::Vector>& encoded() const override {
    return inner_.encoded();
  }
  const std::vector<std::size_t>& objectives() const override {
    return inner_.objectives();
  }
  std::vector<RevealOutcome> reveal_batch(
      const std::vector<std::size_t>& indices,
      const RevealObserver& on_outcome = {}) override {
    std::vector<RevealOutcome> outcomes;
    for (std::size_t j = 0; j < indices.size(); ++j) {
      if (fails(indices[j])) {
        failed_.insert(indices[j]);
        outcomes.emplace_back().error = "tool run failed";
      } else {
        outcomes.push_back(inner_.reveal_batch({indices[j]}).front());
      }
      if (on_outcome) on_outcome(j, outcomes.back());
    }
    return outcomes;
  }
  bool is_revealed(std::size_t i) const override {
    return inner_.is_revealed(i);
  }
  std::size_t runs() const override { return inner_.runs(); }
  std::size_t failed_evaluations() const override { return failed_.size(); }

 private:
  BenchmarkCandidatePool& inner_;
  std::size_t period_;
  std::set<std::size_t> failed_;
};

TEST_F(BaselinesTest, AllBaselinesSurvivePermanentlyFailedReveals) {
  constexpr std::size_t budget = 50;
  const std::vector<
      std::pair<const char*, std::function<tuner::TuningResult(FailingPool&)>>>
      baselines = {
          {"TCAD'19",
           [](FailingPool& p) {
             Tcad19Options o;
             o.max_runs = budget;
             return run_tcad19(p, o);
           }},
          {"MLCAD'19",
           [](FailingPool& p) {
             Mlcad19Options o;
             o.budget = budget;
             return run_mlcad19(p, o);
           }},
          {"DAC'19",
           [this](FailingPool& p) {
             Dac19Options o;
             o.budget = budget;
             return run_dac19(p, &source_data_, o);
           }},
          {"ASPDAC'20",
           [this](FailingPool& p) {
             Aspdac20Options o;
             o.budget = budget;
             return run_aspdac20(p, &source_data_, o);
           }},
      };
  for (const auto& [name, run] : baselines) {
    SCOPED_TRACE(name);
    {
      BenchmarkCandidatePool inner(&target_, kPowerDelay);
      FailingPool pool(inner, 11);
      const tuner::TuningResult result = run(pool);
      EXPECT_EQ(result.tool_runs, budget);
      EXPECT_GT(result.failed_runs, 0u);
      EXPECT_EQ(result.failed_runs, pool.failed_evaluations());
      ASSERT_FALSE(result.pareto_indices.empty());
      for (std::size_t i : result.pareto_indices) {
        EXPECT_FALSE(pool.fails(i)) << i;
        EXPECT_TRUE(inner.is_revealed(i)) << i;
      }
    }
    {
      // Every reveal fails, as with a misconfigured tool: the run stops with
      // the tool failure instead of fitting a model to no data.
      BenchmarkCandidatePool inner(&target_, kPowerDelay);
      FailingPool pool(inner, 1);
      EXPECT_THROW(run(pool), tuner::PoolEvaluationError);
      EXPECT_GT(pool.failed_evaluations(), 0u);
      EXPECT_EQ(inner.runs(), 0u);
    }
  }
}

TEST_F(BaselinesTest, ResultIndicesValid) {
  BenchmarkCandidatePool pool(&target_, kPowerDelay);
  Aspdac20Options opt;
  opt.seed = 9;
  opt.budget = 35;
  const auto result = run_aspdac20(pool, &source_data_, opt);
  std::set<std::size_t> unique(result.pareto_indices.begin(),
                               result.pareto_indices.end());
  EXPECT_EQ(unique.size(), result.pareto_indices.size());
  for (std::size_t i : result.pareto_indices) EXPECT_LT(i, pool.size());
}

/// FNV-1a over the indices, as FastPathParityTest digests them.
std::uint64_t digest(const std::vector<std::size_t>& indices) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t v : indices) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Expected run: every reveal in order (count and digest of the flattened
/// reveal_batch calls), the answer (count and digest) and the run count.
struct Golden {
  std::size_t reveals;
  std::uint64_t reveal_digest;
  std::size_t pareto_count;
  std::uint64_t pareto_digest;
  std::size_t tool_runs;
};

/// Table 3's operating point on the committed pools: Source2 -> Target2,
/// area-power-delay, seed 1, each baseline at its Table 3 budget
/// (bench::scenario_two_budgets). The goldens pin the order of every reveal,
/// so a loop that drifts mid-run but lands on the same front still fails.
class BaselinesGolden : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSeed = 1;

  static const flow::BenchmarkSet& target2() {
    static const flow::BenchmarkSet set = flow::load_benchmark_csv(
        PPAT_TEST_DATA_DIR "/target2.csv", "target2", flow::target2_space());
    return set;
  }

  /// What bench::run_all_methods hands the transfer-capable baselines.
  static const SourceData& source2_data() {
    static const SourceData data = SourceData::from_benchmark(
        flow::load_benchmark_csv(PPAT_TEST_DATA_DIR "/source2.csv", "source2",
                                 flow::source2_space()),
        tuner::kAreaPowerDelay, 200, kSeed + 1);
    return data;
  }

  static void expect_golden(
      const std::function<tuner::TuningResult(tuner::CandidatePool&)>& run,
      const Golden& want) {
    BenchmarkCandidatePool inner(&target2(), tuner::kAreaPowerDelay);
    ppat::testing::RecordingPool pool(inner);
    const tuner::TuningResult result = run(pool);
    const std::vector<std::size_t> revealed = pool.revealed();
    EXPECT_EQ(revealed.size(), want.reveals);
    EXPECT_EQ(digest(revealed), want.reveal_digest);
    EXPECT_EQ(result.pareto_indices.size(), want.pareto_count);
    EXPECT_EQ(digest(result.pareto_indices), want.pareto_digest);
    EXPECT_EQ(result.tool_runs, want.tool_runs);
  }

  /// The GP baselines run their models on the calling thread's pool, so
  /// they are pinned at one thread and at four.
  static void expect_golden_at_1_and_4_threads(
      const std::function<tuner::TuningResult(tuner::CandidatePool&)>& run,
      const Golden& want) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      common::ThreadPool thread_pool(threads);
      const common::ScopedPool scoped(&thread_pool);
      expect_golden(run, want);
    }
  }
};

TEST_F(BaselinesGolden, Tcad19Table3RevealOrder) {
  expect_golden_at_1_and_4_threads(
      [](tuner::CandidatePool& pool) {
        Tcad19Options opt;
        opt.max_runs = 92;
        opt.seed = kSeed;
        return run_tcad19(pool, opt);
      },
      {92, 0xd0c23ecf0419e115ULL, 21, 0xd2537b1d9ea24dcaULL, 92});
}

TEST_F(BaselinesGolden, Mlcad19Table3RevealOrder) {
  expect_golden_at_1_and_4_threads(
      [](tuner::CandidatePool& pool) {
        Mlcad19Options opt;
        opt.budget = 70;
        opt.seed = kSeed;
        return run_mlcad19(pool, opt);
      },
      {70, 0xce7384cbcefed79aULL, 17, 0x8d5a05fe72b98d8cULL, 70});
}

TEST_F(BaselinesGolden, Dac19Table3RevealOrder) {
  expect_golden(
      [](tuner::CandidatePool& pool) {
        Dac19Options opt;
        opt.budget = 130;
        opt.seed = kSeed;
        return run_dac19(pool, &source2_data(), opt);
      },
      {130, 0xa6d5f3d4007875d8ULL, 14, 0x52998ce8164d270aULL, 130});
}

TEST_F(BaselinesGolden, Aspdac20Table3RevealOrder) {
  expect_golden(
      [](tuner::CandidatePool& pool) {
        Aspdac20Options opt;
        opt.budget = 70;
        opt.seed = kSeed;
        return run_aspdac20(pool, &source2_data(), opt);
      },
      {70, 0x58dec3fb8b995d22ULL, 16, 0x81f2f7e615515f33ULL, 70});
}

/// The GP baselines reveal whole batches: the initial design as one
/// reveal_batch call, then one call per round of at most batch_size
/// candidates, so a live pool can run a batch across its licenses.
TEST_F(BaselinesGolden, GpBaselinesRevealWholeBatches) {
  const auto expect_batches = [](const auto& run, std::size_t init_count,
                                 std::size_t batch_size, std::size_t budget) {
    BenchmarkCandidatePool inner(&target2(), tuner::kAreaPowerDelay);
    ppat::testing::RecordingPool pool(inner);
    run(pool);
    const auto& batches = pool.batches();
    ASSERT_GE(batches.size(), 2u);
    EXPECT_EQ(batches.front().size(), init_count);
    std::size_t total = batches.front().size();
    for (std::size_t b = 1; b < batches.size(); ++b) {
      EXPECT_GE(batches[b].size(), 1u) << b;
      EXPECT_LE(batches[b].size(), batch_size) << b;
      total += batches[b].size();
    }
    EXPECT_EQ(total, budget);
  };
  // Target2 has 727 candidates: TCAD'19 starts from max(10, 0.02 * 727) =
  // 14 and MLCAD'19 from max(8, 0.01 * 727) = 8.
  ASSERT_EQ(target2().size(), 727u);
  Tcad19Options tcad;
  tcad.max_runs = 92;
  expect_batches([&](tuner::CandidatePool& p) { return run_tcad19(p, tcad); },
                 14, tcad.batch_size, 92);
  Mlcad19Options mlcad;
  mlcad.budget = 70;
  expect_batches(
      [&](tuner::CandidatePool& p) { return run_mlcad19(p, mlcad); }, 8,
      mlcad.batch_size, 70);
}

}  // namespace
}  // namespace ppat::baselines
