#include "common/random.h"

namespace swole {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void Rng::Reseed(uint64_t seed) {
  s0_ = SplitMix64(seed);
  s1_ = SplitMix64(s0_);
  if (s0_ == 0 && s1_ == 0) s1_ = 1;  // all-zero state is a fixed point
}

}  // namespace swole
