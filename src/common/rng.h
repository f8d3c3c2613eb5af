// Deterministic PRNG utilities (splitmix64 seeding + xoshiro256**).
//
// std::mt19937 is avoided: its state is large and its seeding is easy to
// get wrong; xoshiro256** is the standard choice for reproducible
// simulation workloads.
#pragma once

#include <array>
#include <limits>

#include "common/types.h"

namespace scrnet {

/// splitmix64: used to expand a single seed into xoshiro state.
constexpr u64 splitmix64(u64& state) {
  state += 0x9E3779B97f4A7C15ULL;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm).
class Rng {
 public:
  using result_type = u64;

  explicit Rng(u64 seed = 0x5CA3B0A7D15EA5EDULL) {
    for (auto& w : s_) w = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<u64>::max(); }

  u64 operator()() {
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  u64 below(u64 bound) {
    if (bound == 0) return 0;
    // 128-bit multiply-shift.
    unsigned __int128 m = static_cast<unsigned __int128>(operator()()) * bound;
    return static_cast<u64>(m >> 64);
  }

  /// Uniform in [lo, hi] inclusive.
  u64 range(u64 lo, u64 hi) { return lo + below(hi - lo + 1); }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(operator()() >> 11) * (1.0 / 9007199254740992.0); }

  /// Bernoulli with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  static constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
  std::array<u64, 4> s_{};
};

}  // namespace scrnet
