#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ppat::common {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : state_) w = splitmix64(sm);
  has_spare_normal_ = false;
}

std::array<std::uint64_t, 4> Rng::state() const {
  return {state_[0], state_[1], state_[2], state_[3]};
}

void Rng::set_state(const std::array<std::uint64_t, 4>& state) {
  if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0) {
    throw std::invalid_argument(
        "Rng::set_state: the all-zero state is a fixed point of xoshiro256++");
  }
  for (std::size_t i = 0; i < 4; ++i) state_[i] = state[i];
  has_spare_normal_ = false;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = (0 - bound) % bound;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform01() {
  // Top 53 bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * mul;
  has_spare_normal_ = true;
  return u * mul;
}

double Rng::normal(double mean, double sd) {
  assert(sd >= 0.0);
  return mean + sd * normal();
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over an index vector; O(n) memory, O(n + k) time.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    using std::swap;
    swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace ppat::common
