#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ppat::common {
namespace {

TEST(Stats, MeanBasics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceIsUnbiased) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known dataset: population variance 4, sample variance 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, VarianceDegenerateCases) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
}

}  // namespace
}  // namespace ppat::common
