// Deterministic random number generation.
//
// Every stochastic component in the simulator draws from an explicitly seeded
// Pcg32 stream. We also provide a *counter-based* pure hash (hash_u64 /
// pure_uniform) so that time-indexed processes (e.g. "is an ambient
// interference burst active at tick T?") can be evaluated as pure functions of
// (seed, counter) without mutable generator state.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace dimmer::util {

/// SplitMix64 step; used for seeding and as a counter-based hash.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Mix an arbitrary number of 64-bit values into one hash (for sub-streams).
constexpr std::uint64_t hash_u64(std::uint64_t a) { return splitmix64(a); }
constexpr std::uint64_t hash_u64(std::uint64_t a, std::uint64_t b) {
  return splitmix64(splitmix64(a) ^ (b + 0x9e3779b97f4a7c15ULL));
}
constexpr std::uint64_t hash_u64(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) {
  return hash_u64(hash_u64(a, b), c);
}

/// FNV-1a 64-bit over a byte string: a stable, platform-independent digest
/// (campaign spec fingerprints, dimmer-lint baseline keys).
constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Uniform double in [0,1) as a pure function of a hash input.
inline double pure_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// PCG32: small, fast, statistically solid generator (O'Neill 2014).
class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL)
      : state_(0), inc_((stream << 1u) | 1u) {
    next_u32();
    state_ += splitmix64(seed);
    next_u32();
  }

  std::uint32_t next_u32() {
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  /// Uniform double in [0,1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo,hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0,n) without modulo bias (Lemire's method).
  std::uint32_t uniform_below(std::uint32_t n) {
    DIMMER_REQUIRE(n > 0, "uniform_below(0)");
    std::uint64_t m = std::uint64_t{next_u32()} * n;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < n) {
      std::uint32_t t = (0u - n) % n;
      while (lo < t) {
        m = std::uint64_t{next_u32()} * n;
        lo = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform integer in [lo,hi] inclusive. The span arithmetic is 64-bit:
  /// `hi - lo + 1` evaluated in int is signed-overflow UB once the range
  /// spans more than INT_MAX values (e.g. uniform_int(INT_MIN, INT_MAX)).
  /// Every in-range call draws identically to the historical expression;
  /// the one span uniform_below can't represent — the full 2^32 range —
  /// consumes exactly one next_u32, the same as any non-rejected Lemire
  /// draw, so stream positions stay aligned.
  int uniform_int(int lo, int hi) {
    DIMMER_REQUIRE(lo <= hi, "uniform_int: lo > hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) -
                                   static_cast<std::int64_t>(lo)) +
        1;
    const std::uint64_t offset =
        span > 0xffffffffULL
            ? next_u32()  // full 32-bit span: every u32 is already uniform
            : uniform_below(static_cast<std::uint32_t>(span));
    return static_cast<int>(static_cast<std::int64_t>(lo) +
                            static_cast<std::int64_t>(offset));
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    s = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * s;
    have_spare_ = true;
    return u * s;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_below(static_cast<std::uint32_t>(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-component sub-streams).
  Pcg32 fork(std::uint64_t tag) {
    return Pcg32(hash_u64(next_u64(), tag), hash_u64(tag, 0x5bf0'3635ULL));
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace dimmer::util
