// Seed-derivation primitives shared by the simulation substrate.
//
// SplitMix64 is the engine's cheap deterministic generator: statistically
// solid for sequential seeds, 8 bytes of state, no allocation (unlike
// std::mt19937_64's 2.5 KB). derive_seed is the layout-independence
// contract: every randomized object (fault sample, pattern batch, pattern
// word) draws from a seed derived purely from (master seed, object index),
// never from allocation or iteration order — so results are bit-identical
// for any thread count, any SIMD width, and any memory layout.
#pragma once

#include <cstdint>

namespace apx {

/// SplitMix64 mixing generator (Steele et al.). Also a standard uniform
/// random bit generator over full 64-bit words.
class SplitMix64 {
 public:
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t operator()() { return next(); }
  uint64_t next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// The seed-derivation contract: object `index` of a stream with master
/// seed `seed` uses splitmix64(seed ^ index). Campaigns derive fault
/// sample i's seed from (seed, i) and pattern batch b's seed from
/// (seed ^ kPatternStream, b); PatternSet derives word (pi, w) from
/// (seed, pi << 32 | w). Results depend only on the master seed and the
/// object's index — never on thread count, scheduling, or layout.
inline uint64_t derive_seed(uint64_t seed, uint64_t index) {
  return SplitMix64(seed ^ index).next();
}

/// Unbiased draw from [0, n), n > 0 (Lemire's multiply-shift with
/// rejection). `rng() % n` over-weights low values whenever n does not
/// divide 2^64. `Engine` must yield uniform 64-bit words (SplitMix64,
/// std::mt19937_64).
template <class Engine>
uint64_t bounded_pick(Engine& rng, uint64_t n) {
  static_assert(Engine::min() == 0 && Engine::max() == ~uint64_t{0},
                "bounded_pick needs a full-range 64-bit engine");
  uint64_t x = rng();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < n) {
    const uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = rng();
      m = static_cast<unsigned __int128>(x) * n;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

}  // namespace apx
