#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace ppat::common {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double min_of(std::span<const double> xs) {
  assert(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  assert(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace ppat::common
