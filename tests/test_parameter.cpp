#include "flow/parameter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace ppat::flow {
namespace {

ParameterSpace make_space() {
  return ParameterSpace({
      ParamSpec::real("freq", 1000, 1300),
      ParamSpec::integer("max_fanout", 25, 50),
      ParamSpec::enumeration("effort", {"standard", "high", "extreme"}),
      ParamSpec::boolean("uniform"),
  });
}

TEST(ParamSpec, FactoriesValidate) {
  EXPECT_THROW(ParamSpec::real("x", 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ParamSpec::integer("x", 5, 4), std::invalid_argument);
  EXPECT_THROW(ParamSpec::enumeration("x", {}), std::invalid_argument);
  EXPECT_THROW(ParamSpec::integer_levels("x", {}), std::invalid_argument);
  EXPECT_THROW(ParamSpec::integer_levels("x", {4, 2}), std::invalid_argument);
  EXPECT_THROW(ParamSpec::factors("x", 0), std::invalid_argument);
}

TEST(ParamSpec, FactorsEnumeratesDivisorsAscending) {
  const ParamSpec s = ParamSpec::factors("tile", 12);
  const std::vector<double> expected = {1, 2, 3, 4, 6, 12};
  EXPECT_EQ(s.levels, expected);
  EXPECT_DOUBLE_EQ(s.min_value, 1.0);
  EXPECT_DOUBLE_EQ(s.max_value, 12.0);
  EXPECT_TRUE(s.constrained());
}

// Regression (issue 8 satellite): degenerate-but-legal specs — a pinned
// single-option enum and a min==max integer — must round-trip through
// encode/decode without a zero-width-range divide.
TEST(ParameterSpace, DegenerateSpecsEncodeDecodeIdempotent) {
  const ParameterSpace space({
      ParamSpec::enumeration("pinned", {"only"}),
      ParamSpec::integer("fixed", 7, 7),
      ParamSpec::integer_levels("single", {3}),
  });
  for (double u : {0.0, 0.25, 0.999, 1.0}) {
    const Config c1 = space.decode({u, u, u});
    EXPECT_DOUBLE_EQ(c1[0], 0.0);
    EXPECT_DOUBLE_EQ(c1[1], 7.0);
    EXPECT_DOUBLE_EQ(c1[2], 3.0);
    const linalg::Vector e = space.encode(c1);
    for (double v : e) {
      EXPECT_TRUE(std::isfinite(v)) << "encode produced non-finite value";
    }
    const Config c2 = space.decode(e);
    EXPECT_EQ(c1, c2);
  }
}

// The divide could previously only be reached through directly-constructed
// specs that bypassed the factories; construction now rejects those.
TEST(ParameterSpace, ConstructionRejectsMalformedSpecs) {
  ParamSpec zero_width;
  zero_width.name = "w";
  zero_width.type = ParamType::kFloat;
  zero_width.min_value = 1.0;
  zero_width.max_value = 1.0;
  EXPECT_THROW(ParameterSpace({zero_width}), std::invalid_argument);

  ParamSpec empty_enum;
  empty_enum.name = "e";
  empty_enum.type = ParamType::kEnum;
  EXPECT_THROW(ParameterSpace({empty_enum}), std::invalid_argument);

  ParamSpec unnamed;
  unnamed.type = ParamType::kBool;
  EXPECT_THROW(ParameterSpace({unnamed}), std::invalid_argument);

  ParamSpec non_integral;
  non_integral.name = "i";
  non_integral.type = ParamType::kInt;
  non_integral.min_value = 0.5;
  non_integral.max_value = 3.5;
  EXPECT_THROW(ParameterSpace({non_integral}), std::invalid_argument);
}

TEST(ParameterSpace, ConstraintWiringValidated) {
  // Parent must exist and come EARLIER.
  EXPECT_THROW(
      ParameterSpace({ParamSpec::factors("child", 8).divides("parent")}),
      std::invalid_argument);
  EXPECT_THROW(
      ParameterSpace({ParamSpec::factors("child", 8).divides("parent"),
                      ParamSpec::factors("parent", 8)}),
      std::invalid_argument);
  // Divides parent must be an integer parameter.
  EXPECT_THROW(
      ParameterSpace({ParamSpec::boolean("flag"),
                      ParamSpec::factors("child", 8).divides("flag")}),
      std::invalid_argument);
  // A divisibility-constrained domain must contain 1 (rejection-free
  // sampling guarantee).
  EXPECT_THROW(
      ParameterSpace({ParamSpec::factors("parent", 8),
                      ParamSpec::integer_levels("child", {2, 4})
                          .divides("parent")}),
      std::invalid_argument);
  // Activation parent must be discrete.
  EXPECT_THROW(
      ParameterSpace({ParamSpec::real("r", 0.0, 1.0),
                      ParamSpec::boolean("b").active_when("r", 0.5)}),
      std::invalid_argument);
  // Well-formed wiring is accepted.
  const ParameterSpace ok({
      ParamSpec::factors("parent", 8),
      ParamSpec::boolean("toggle"),
      ParamSpec::factors("child", 8).divides("parent").active_when("toggle",
                                                                   1.0),
  });
  EXPECT_TRUE(ok.has_constraints());
}

TEST(ParameterSpace, LegacySpacesReportNoConstraints) {
  EXPECT_FALSE(make_space().has_constraints());
}

TEST(ParameterSpace, DeactivationCascadesInDecodeAndFeasibility) {
  const ParameterSpace space({
      ParamSpec::boolean("outer"),
      ParamSpec::boolean("mid").active_when("outer", 1.0),
      ParamSpec::integer_levels("leaf", {1, 2, 4}).active_when("mid", 1.0),
  });
  const Config all_on = {1.0, 1.0, 4.0};
  EXPECT_EQ(space.decode({0.9, 0.9, 0.9}), all_on);
  EXPECT_TRUE(space.is_feasible(all_on));
  // Outer off: the whole chain deactivates, even though mid's coordinate
  // asks for 1, and decode imputes both at their canonical values.
  const Config canon = {0.0, 0.0, 1.0};
  EXPECT_EQ(space.decode({0.1, 0.9, 0.9}), canon);
  EXPECT_FALSE(space.is_feasible({0.0, 1.0, 4.0}));  // not in canonical form
  EXPECT_TRUE(space.is_feasible(canon));
}

TEST(ParameterSpace, FeasibilityChecksDivisibility) {
  const ParameterSpace space({
      ParamSpec::factors("parent", 12),
      ParamSpec::factors("child", 12).divides("parent"),
  });
  EXPECT_TRUE(space.is_feasible({12.0, 4.0}));
  EXPECT_TRUE(space.is_feasible({6.0, 3.0}));
  EXPECT_FALSE(space.is_feasible({6.0, 4.0}));   // 4 does not divide 6
  EXPECT_FALSE(space.is_feasible({12.0, 5.0}));  // 5 not in the level set
}

TEST(ParameterSpace, DecodeFeasibleIsAlwaysFeasibleAndSpansLevels) {
  const ParameterSpace space({
      ParamSpec::factors("parent", 24),
      ParamSpec::boolean("toggle"),
      ParamSpec::factors("child", 24).divides("parent").active_when("toggle",
                                                                    1.0),
  });
  std::size_t distinct_children = 0;
  std::vector<double> seen;
  for (int a = 0; a <= 10; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (int c = 0; c <= 10; ++c) {
        const linalg::Vector u = {a / 10.0, static_cast<double>(b), c / 10.0};
        const Config cfg = space.decode(u);
        ASSERT_TRUE(space.is_feasible(cfg))
            << "u = (" << u[0] << ", " << u[1] << ", " << u[2] << ")";
        if (std::find(seen.begin(), seen.end(), cfg[2]) == seen.end()) {
          seen.push_back(cfg[2]);
          ++distinct_children;
        }
      }
    }
  }
  // The child coordinate must actually range over divisors, not collapse.
  EXPECT_GT(distinct_children, 3u);
}

TEST(ParameterSpace, DuplicateNamesRejected) {
  EXPECT_THROW(ParameterSpace({ParamSpec::boolean("a"),
                               ParamSpec::boolean("a")}),
               std::invalid_argument);
}

TEST(ParameterSpace, IndexLookup) {
  const auto space = make_space();
  EXPECT_EQ(space.index_of("freq"), 0u);
  EXPECT_EQ(space.index_of("uniform"), 3u);
  EXPECT_EQ(space.index_of("missing"), ParameterSpace::npos);
  EXPECT_TRUE(space.has("effort"));
  EXPECT_FALSE(space.has("nope"));
}

TEST(ParameterSpace, Cardinality) {
  const auto space = make_space();
  EXPECT_EQ(space.cardinality(0), 0u);   // continuous
  EXPECT_EQ(space.cardinality(1), 26u);  // 25..50
  EXPECT_EQ(space.cardinality(2), 3u);
  EXPECT_EQ(space.cardinality(3), 2u);
}

TEST(ParameterSpace, DecodeBoundsAndQuantization) {
  const auto space = make_space();
  const Config lo = space.decode({0.0, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(lo[0], 1000.0);
  EXPECT_DOUBLE_EQ(lo[1], 25.0);
  EXPECT_DOUBLE_EQ(lo[2], 0.0);
  EXPECT_DOUBLE_EQ(lo[3], 0.0);
  const Config hi = space.decode({1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(hi[0], 1300.0);
  EXPECT_DOUBLE_EQ(hi[1], 50.0);
  EXPECT_DOUBLE_EQ(hi[2], 2.0);
  EXPECT_DOUBLE_EQ(hi[3], 1.0);
}

TEST(ParameterSpace, DecodeClampsOutOfRange) {
  const auto space = make_space();
  const Config c = space.decode({-0.5, 2.0, -1.0, 3.0});
  space.validate(c);  // must be in range
}

TEST(ParameterSpace, EncodeDecodeIsIdempotentOnCells) {
  const auto space = make_space();
  const linalg::Vector u = {0.37, 0.61, 0.45, 0.9};
  const Config c1 = space.decode(u);
  const linalg::Vector e = space.encode(c1);
  const Config c2 = space.decode(e);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-9) << "param " << i;
  }
}

TEST(ParameterSpace, EncodeMapsDiscreteToCellMidpoints) {
  const auto space = make_space();
  Config c = space.decode({0.0, 0.0, 0.0, 0.0});
  const auto u = space.encode(c);
  // Boolean FALSE should map to the middle of [0, 0.5).
  EXPECT_NEAR(u[3], 0.25, 1e-12);
  // Enum level 0 of 3 -> midpoint of [0, 1/3).
  EXPECT_NEAR(u[2], 1.0 / 6.0, 1e-12);
}

TEST(ParameterSpace, ValidateCatchesErrors) {
  const auto space = make_space();
  Config ok = space.decode({0.5, 0.5, 0.5, 0.5});
  space.validate(ok);
  Config bad_range = ok;
  bad_range[0] = 2000.0;
  EXPECT_THROW(space.validate(bad_range), std::invalid_argument);
  Config bad_integral = ok;
  bad_integral[1] = 30.5;
  EXPECT_THROW(space.validate(bad_integral), std::invalid_argument);
  Config bad_dim(3, 0.0);
  EXPECT_THROW(space.validate(bad_dim), std::invalid_argument);
}

TEST(ParameterSpace, ValueOrFallsBack) {
  const auto space = make_space();
  const Config c = space.decode({0.5, 0.5, 0.5, 0.5});
  EXPECT_DOUBLE_EQ(space.value_or(c, "freq", -1.0), c[0]);
  EXPECT_DOUBLE_EQ(space.value_or(c, "absent", -1.0), -1.0);
}

TEST(ParameterSpace, FormatValue) {
  const auto space = make_space();
  EXPECT_EQ(space.format_value(0, 1150.0), "1150.000");
  EXPECT_EQ(space.format_value(1, 30.0), "30");
  EXPECT_EQ(space.format_value(2, 2.0), "extreme");
  EXPECT_EQ(space.format_value(3, 1.0), "TRUE");
  EXPECT_EQ(space.format_value(3, 0.0), "FALSE");
}

}  // namespace
}  // namespace ppat::flow
