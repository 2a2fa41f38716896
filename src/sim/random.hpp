// iosim: deterministic pseudo-random sources.
//
// We avoid std::mt19937 (its stream is standardized, but distributions are
// not) — all distributions here are hand-rolled over xoshiro256**, so results
// are bit-identical across standard libraries and platforms.
#pragma once

#include <cmath>
#include <cstdint>

namespace iosim::sim {

/// SplitMix64: used to expand a single user seed into generator state.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (the public-domain splitmix64 stream).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : x_(seed) {}
  constexpr std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t x_;
};

/// Mix a base seed and a run index into an independent per-run seed.
///
/// Never derive repeat seeds as `base + index`: with k repeats, base seeds
/// b and b+1 share k-1 of their k run seeds, so two "independent"
/// experiments would mostly re-run the same streams — and averaged results
/// for adjacent base seeds would be correlated by construction. Two
/// splitmix64 finalizer passes (one over the base, one over the mixed base
/// plus the index) give full avalanche in both arguments.
inline constexpr std::uint64_t derive_run_seed(std::uint64_t base, std::uint64_t index) {
  SplitMix64 a(base);
  SplitMix64 b(a.next() + index);
  return b.next();
}

/// xoshiro256** 1.0 (Blackman & Vigna, public domain): the library's only
/// PRNG. Small state, excellent statistical quality, trivially seedable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection-free Lemire
  /// style reduction; the tiny modulo bias of the simple form is removed.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's multiply-shift with rejection.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t t = (0 - n) % n;
      while (lo < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    double u = uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Standard normal via Marsaglia polar method (deterministic given stream).
  double normal(double mu = 0.0, double sigma = 1.0) {
    if (have_spare_) {
      have_spare_ = false;
      return mu + sigma * spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * f;
    have_spare_ = true;
    return mu + sigma * u * f;
  }

  /// True with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace iosim::sim
