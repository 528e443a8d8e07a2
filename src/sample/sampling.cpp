#include "sample/sampling.hpp"

namespace ppat::sample {

std::vector<linalg::Vector> latin_hypercube(std::size_t n, std::size_t d,
                                            common::Rng& rng) {
  std::vector<linalg::Vector> points(n, linalg::Vector(d));
  for (std::size_t j = 0; j < d; ++j) {
    auto strata = rng.permutation(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform01();
      points[i][j] =
          (static_cast<double>(strata[i]) + u) / static_cast<double>(n);
    }
  }
  return points;
}

}  // namespace ppat::sample
