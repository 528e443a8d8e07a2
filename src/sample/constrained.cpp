#include "sample/constrained.hpp"

#include <cstring>
#include <string>
#include <unordered_set>

#include "sample/sampling.hpp"

namespace ppat::sample {

namespace {

std::string config_key(const flow::Config& config) {
  std::string key(config.size() * sizeof(double), '\0');
  if (!config.empty()) {
    std::memcpy(key.data(), config.data(), key.size());
  }
  return key;
}

}  // namespace

std::vector<flow::Config> constrained_lhs(const flow::ParameterSpace& space,
                                          std::size_t n, common::Rng& rng) {
  std::vector<flow::Config> out;
  std::unordered_set<std::string> seen;
  // Quantization collisions shrink each decoded batch, so keep drawing
  // fresh stratified batches; `dry` consecutive batches with no new design
  // means the feasible set is (effectively) exhausted.
  std::size_t dry = 0;
  while (out.size() < n && dry < 4) {
    const std::size_t want = n - out.size();
    const auto unit = latin_hypercube(want, space.size(), rng);
    bool grew = false;
    for (const auto& u : unit) {
      flow::Config c = space.decode(u);
      if (seen.insert(config_key(c)).second) {
        out.push_back(std::move(c));
        grew = true;
      }
    }
    dry = grew ? 0 : dry + 1;
  }
  return out;
}

}  // namespace ppat::sample
