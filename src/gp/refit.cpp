#include "gp/refit.hpp"

#include <algorithm>

namespace ppat::gp {

std::vector<std::size_t> refit_subset(common::Rng& rng, std::size_t total,
                                      std::size_t cap, bool sorted) {
  std::vector<std::size_t> idx;
  if (total > cap) {
    idx = rng.sample_without_replacement(total, cap);
    if (sorted) std::sort(idx.begin(), idx.end());
  } else {
    idx.resize(total);
    for (std::size_t i = 0; i < total; ++i) idx[i] = i;
  }
  return idx;
}

std::vector<linalg::Vector> refit_starts(common::Rng& rng,
                                         const linalg::Vector& current,
                                         std::size_t restarts) {
  std::vector<linalg::Vector> starts;
  starts.reserve(restarts);
  for (std::size_t s = 0; s < restarts; ++s) {
    linalg::Vector x0 = current;
    if (s > 0) {
      for (double& v : x0) v += rng.normal(0.0, 1.0);
    }
    starts.push_back(std::move(x0));
  }
  return starts;
}

MultiStartResult minimize_multistart(
    const std::function<double(const linalg::Vector&)>& objective,
    const linalg::Vector& current, const std::vector<linalg::Vector>& starts,
    const linalg::NelderMeadOptions& nm) {
  // Ordered winner scan: incumbent first, then plan order, strict <.
  MultiStartResult best{current, objective(current)};
  for (const auto& start : starts) {
    const linalg::NelderMeadResult r =
        linalg::nelder_mead(objective, start, nm);
    if (r.f < best.f) {
      best.f = r.f;
      best.x = r.x;
    }
  }
  return best;
}

}  // namespace ppat::gp
