// End-to-end bit-identity of the tuner's decision loop (cross-round
// posterior cache, sweep-based fronts and delta passes, tiled prediction)
// against golden fingerprints. The constants below were recorded while the
// pairwise / uncached legacy loop still existed beside these paths, and both
// produced exactly these values — so matching them pins the loop to the
// reference semantics across batch sizes, objective counts, surrogate
// families, kernels and refit cadences. Every golden also pins the order in
// which candidates were revealed, so a run that drifts mid-way but ends on
// the same front still fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "hls/systolic.hpp"
#include "recording_pool.hpp"
#include "synthetic_benchmark.hpp"
#include "tuner/ppatuner.hpp"

namespace ppat::tuner {
namespace {

/// Expected run summary. The Pareto index list is pinned by its length and
/// an FNV-1a digest over the indices in result order.
struct Golden {
  std::size_t pareto_count;
  std::uint64_t pareto_digest;
  std::size_t tool_runs;
  std::size_t failed_runs;
  std::size_t rounds;
  std::size_t dropped;
  std::size_t classified_pareto;
  std::size_t undecided;
  std::vector<std::uint64_t> task_correlation_bits;
  std::uint64_t selection_digest;  ///< revealed indices in reveal order
};

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

std::uint64_t bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

using testing::RecordingPool;

class FastPathParityTest : public ::testing::Test {
 protected:
  FastPathParityTest()
      : source_(testing::synthetic_benchmark("src", 300, 11, 0.3)),
        target_(testing::synthetic_benchmark("tgt", 400, 12, 0.0)) {}

  SourceData source_data(const std::vector<std::size_t>& objectives) {
    return SourceData::from_benchmark(source_, objectives, 150, 5);
  }

  static PPATunerOptions base_options(std::size_t batch) {
    PPATunerOptions opt;
    opt.seed = 42;
    opt.batch_size = batch;
    opt.min_init = 15;
    opt.init_fraction = 0.0;
    opt.refit_every = 4;  // several refits per run: epoch invalidation runs
    opt.max_runs = 60;
    opt.max_rounds = 20;
    return opt;
  }

  void expect_golden(const std::vector<std::size_t>& objectives,
                     const SurrogateFactory& factory,
                     const PPATunerOptions& opt, const Golden& want) {
    expect_golden_on(target_, objectives, factory, opt, want);
  }

  static void expect_golden_on(const flow::BenchmarkSet& target,
                               const std::vector<std::size_t>& objectives,
                               const SurrogateFactory& factory,
                               const PPATunerOptions& opt,
                               const Golden& want) {
    BenchmarkCandidatePool inner(&target, objectives);
    RecordingPool pool(inner);
    PPATunerDiagnostics diag;
    const TuningResult result = run_ppatuner(pool, factory, opt, &diag);
    EXPECT_EQ(result.pareto_indices.size(), want.pareto_count);
    EXPECT_EQ(digest(result.pareto_indices), want.pareto_digest);
    EXPECT_EQ(result.tool_runs, want.tool_runs);
    EXPECT_EQ(result.failed_runs, want.failed_runs);
    EXPECT_EQ(diag.rounds, want.rounds);
    EXPECT_EQ(diag.dropped, want.dropped);
    EXPECT_EQ(diag.classified_pareto, want.classified_pareto);
    EXPECT_EQ(diag.undecided, want.undecided);
    ASSERT_EQ(diag.task_correlations.size(), want.task_correlation_bits.size());
    for (std::size_t k = 0; k < diag.task_correlations.size(); ++k) {
      EXPECT_EQ(bits_of(diag.task_correlations[k]),
                want.task_correlation_bits[k])
          << "objective " << k << ": " << diag.task_correlations[k];
    }
    EXPECT_EQ(digest(pool.revealed()), want.selection_digest);
  }

  /// Target of the HLS transfer pair (large GEMM systolic array).
  static flow::BenchmarkSet systolic_target() {
    return hls::build_systolic_benchmark("hls_tgt", hls::large_gemm(), 150,
                                         34);
  }

  static PPATunerOptions systolic_options() {
    PPATunerOptions opt;
    opt.seed = 3;
    opt.batch_size = 4;
    opt.min_init = 10;
    opt.init_fraction = 0.0;
    opt.refit_every = 2;
    opt.max_runs = 40;
    opt.max_rounds = 20;
    return opt;
  }

  flow::BenchmarkSet source_, target_;
};

TEST_F(FastPathParityTest, TransferThreeObjectivesAcrossBatchSizes) {
  const auto factory = make_transfer_gp_factory(source_data(kAreaPowerDelay));
  const struct {
    std::size_t batch;
    Golden want;
  } cases[] = {
      {1,
       {277, 0x1ee66991a4584662ULL, 30, 0, 16, 129, 271, 0,
        {0x3fef76a539153612ULL, 0x3fec318a5ffb20aeULL,
         0x3fefdce8c8df02b4ULL},
        0xb898a977708d1bbeULL}},
      {4,
       {271, 0x5c8e01420c985116ULL, 39, 0, 7, 136, 264, 0,
        {0x3fefc03d84cb57e8ULL, 0x3fedbe5e4ee42bc0ULL,
         0x3feffbb3a4522dd4ULL},
        0xb46f99745d04886eULL}},
      {16,
       {273, 0xcb045812b451ab54ULL, 60, 0, 3, 89, 211, 100,
        {0x3fee94e9f8a5c3baULL, 0x3feab4f62ad9a54cULL,
         0x3fe9ddc6ee6eadcaULL},
        0xfbfff3f520389eb2ULL}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "batch=" << c.batch);
    expect_golden(kAreaPowerDelay, factory, base_options(c.batch), c.want);
  }
}

TEST_F(FastPathParityTest, TransferTwoObjectives) {
  // 2-objective fronts take the running-min sweep instead of the staircase.
  const auto factory = make_transfer_gp_factory(source_data(kAreaDelay));
  expect_golden(kAreaDelay, factory, base_options(4),
                {1, 0x5d22b4fa7ad07b4dULL, 19, 0, 2, 399, 1, 0,
                 {0x3fee94e9f8a5c3baULL, 0x3fe9ddc6ee6eadcaULL},
                 0xd9b7ac4877043c78ULL});
}

TEST_F(FastPathParityTest, PlainGpSurrogates) {
  expect_golden(kPowerDelay, make_plain_gp_factory(), base_options(4),
                {19, 0xf8a73b1618cf96a1ULL, 35, 0, 6, 381, 19, 0, {},
                 0x696d71e13b11a9a4ULL});
}

TEST_F(FastPathParityTest, MaternTransferSurrogates) {
  // Matern 5/2 refits take the pairwise-cache NLL through its
  // gram_from_pairwise loop.
  const auto factory = make_transfer_gp_factory(
      source_data(kAreaPowerDelay), KernelKind::kMatern52);
  expect_golden(kAreaPowerDelay, factory, base_options(4),
                {272, 0x4455f2e16b59b652ULL, 59, 0, 12, 134, 266, 0,
                 {0x3fee904e908702b6ULL, 0x3fe85f88db61d994ULL,
                  0x3fee2fe77abfa100ULL},
                 0x76840fe41023e433ULL});
}

TEST_F(FastPathParityTest, MixedKernelTransferSmallToLargeSystolic) {
  // The HLS pair: constrained mixed spaces route through
  // default_transfer_gp_factory_for -> MixedSpaceKernel, whose refits take
  // the joint pairwise-cache NLL (sqdist + categorical mismatch counts).
  const auto source_bench =
      hls::build_systolic_benchmark("hls_src", hls::small_gemm(), 200, 33);
  const auto target_bench = systolic_target();
  const auto source =
      SourceData::from_benchmark(source_bench, kAreaPowerDelay, 120, 7);
  expect_golden_on(target_bench, kAreaPowerDelay,
                   default_transfer_gp_factory_for(target_bench.space, source),
                   systolic_options(),
                   {18, 0x67811e2395705198ULL, 40, 0, 8, 47, 1, 102,
                    {0x3fef114aff4734dcULL, 0x3fefc2a7de827d1aULL,
                     0x3fefd9632997cec4ULL},
                    0x60e0f111718be591ULL});
}

TEST_F(FastPathParityTest, MixedKernelPlainSystolic) {
  // The plain GP on a mixed space: MixedSpaceKernel refits take the
  // single-task pairwise-cache NLL.
  const auto target_bench = systolic_target();
  expect_golden_on(target_bench, kAreaPowerDelay,
                   default_gp_factory_for(target_bench.space),
                   systolic_options(),
                   {19, 0xd4c69799baf088a3ULL, 40, 0, 8, 125, 8, 17, {},
                    0xd1e230f884d4b2e4ULL});
}

}  // namespace
}  // namespace ppat::tuner
