// Small statistics helpers shared by the tuning algorithms and the benchmark
// harness (result aggregation across seeds).
#pragma once

#include <span>

namespace ppat::common {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Unbiased sample variance (divides by n-1); returns 0 for n < 2.
double variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

}  // namespace ppat::common
