#include "sample/constrained.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "hls/systolic.hpp"

namespace ppat::sample {
namespace {

flow::ParameterSpace tiny_discrete_space() {
  return flow::ParameterSpace({
      flow::ParamSpec::boolean("a"),
      flow::ParamSpec::enumeration("b", {"x", "y", "z"}),
  });
}

std::set<std::string> keys(const std::vector<flow::Config>& configs) {
  std::set<std::string> out;
  for (const auto& c : configs) {
    std::string k;
    for (double v : c) k += std::to_string(v) + "|";
    out.insert(k);
  }
  return out;
}

// Asking for more designs than a tiny discrete space holds must terminate
// and return exactly the feasible set (collision top-up cannot loop forever).
TEST(ConstrainedLhs, ExhaustsTinyDiscreteSpace) {
  const auto space = tiny_discrete_space();
  common::Rng rng(5);
  const auto configs = constrained_lhs(space, 50, rng);
  EXPECT_EQ(configs.size(), 6u);  // 2 bools x 3 enum levels
  EXPECT_EQ(keys(configs).size(), 6u);
}

TEST(ConstrainedLhs, DeterministicUnderSeedAndDistinct) {
  const auto space = hls::systolic_space(hls::small_gemm());
  common::Rng a(42), b(42), c(43);
  const auto pa = constrained_lhs(space, 64, a);
  const auto pb = constrained_lhs(space, 64, b);
  const auto pc = constrained_lhs(space, 64, c);
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, pc);
  EXPECT_EQ(keys(pa).size(), pa.size());  // all unique after dedup
}

TEST(ConstrainedLhs, EveryDesignIsFeasible) {
  const auto space = hls::systolic_space(hls::small_gemm());
  ASSERT_TRUE(space.has_constraints());
  common::Rng rng(7);
  const auto configs = constrained_lhs(space, 200, rng);
  EXPECT_GE(configs.size(), 150u);  // collisions exist but must not dominate
  for (const auto& c : configs) {
    ASSERT_TRUE(space.is_feasible(c));
  }
}

}  // namespace
}  // namespace ppat::sample
