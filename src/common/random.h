#ifndef SWOLE_COMMON_RANDOM_H_
#define SWOLE_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

// Deterministic, fast PRNG used by all data generators (TPC-H dbgen-equivalent
// and the microbenchmark tables). Not std::mt19937: xorshift128+ is ~4x
// faster, and generator output must be stable across standard library
// versions so tests and experiments are reproducible.

namespace swole {

/// xorshift128+ generator. Deterministic for a given seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Reseed(seed); }

  /// Re-initializes the state from `seed` via splitmix64 so that nearby
  /// seeds produce uncorrelated streams.
  void Reseed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform in [0, bound). Preconditions: bound > 0.
  uint64_t NextBounded(uint64_t bound) {
    SWOLE_DCHECK_GT(bound, 0u);
    // Lemire's multiply-shift rejection-free mapping; negligible bias for
    // bound << 2^64, which holds for every use in this project.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    SWOLE_DCHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) { return UniformDouble() < p; }

 private:
  uint64_t s0_ = 0;
  uint64_t s1_ = 0;
};

/// splitmix64 step; used for seeding and as a cheap integer hash.
uint64_t SplitMix64(uint64_t x);

/// Fisher-Yates shuffle with the project PRNG (deterministic per seed).
template <typename T>
void Shuffle(std::vector<T>* values, Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    size_t j = rng->NextBounded(i);
    std::swap((*values)[i - 1], (*values)[j]);
  }
}

}  // namespace swole

#endif  // SWOLE_COMMON_RANDOM_H_
