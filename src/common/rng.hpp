// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (samplers, tuners, benchmark
// builders) take an explicit seed and derive their streams from this
// generator, so that every experiment in the paper reproduction is exactly
// repeatable across runs and platforms.
//
// The core generator is xoshiro256++ (Blackman & Vigna, 2019): fast, small
// state, passes BigCrush, and — unlike std::mt19937 + std::*_distribution —
// the distributions implemented here are fully specified, so results do not
// change across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace ppat::common {

/// Deterministic 64-bit PRNG (xoshiro256++) with portable distributions.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can also be
/// plugged into standard algorithms, but prefer the member distributions for
/// cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from `seed` via SplitMix64, which
  /// guarantees a non-zero, well-mixed state for any seed value.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initializes the state from `seed` (same expansion as the ctor).
  void reseed(std::uint64_t seed);

  /// The four raw xoshiro256++ state words. Together with set_state() this
  /// serializes/restores the exact stream position (journal resume), which
  /// reseeding cannot do. The polar-method spare-normal cache is NOT part of
  /// the serialized state: callers must only snapshot at points where no
  /// spare is pending (set_state() clears any cached spare so a restored
  /// generator replays the raw stream exactly).
  std::array<std::uint64_t, 4> state() const;

  /// Restores a state previously obtained from state(). Throws
  /// std::invalid_argument on the all-zero state (a fixed point of
  /// xoshiro256++, never produced by reseed()).
  void set_state(const std::array<std::uint64_t, 4>& state);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Next raw 64-bit output.
  std::uint64_t operator()() { return next_u64(); }

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  /// Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01();

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  double uniform(double lo, double hi);

  /// Standard normal deviate (Marsaglia polar method; portable).
  double normal();

  /// Normal deviate with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Random permutation of {0, 1, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// `k` distinct indices sampled uniformly from {0, ..., n-1}, k <= n.
  /// Returned in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  std::uint64_t state_[4];
  // Cached second deviate from the polar method (NaN when empty).
  double spare_normal_;
  bool has_spare_normal_ = false;
};

}  // namespace ppat::common
