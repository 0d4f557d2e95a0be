// Deterministic random number generation for the platform.
//
// xoshiro256** (Blackman & Vigna) seeded via SplitMix64. Every stochastic
// component of the platform owns a child Rng forked from the experiment's
// master seed, so experiments are reproducible bit-for-bit regardless of the
// order in which components draw numbers.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace pofi::sim {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Shard a master seed into statistically independent per-stream seeds.
/// Campaign `stream_index` of a suite always receives the same seed for a
/// given master, regardless of worker-thread count or completion order, so
/// sharded runs are bit-identical to sequential ones. Constant-time (no
/// stream advancing): the master is mixed once, then offset by the index on
/// the SplitMix64 golden-gamma lattice and mixed again.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master_seed,
                                                 std::uint64_t stream_index) {
  std::uint64_t sm = master_seed;
  const std::uint64_t mixed_master = splitmix64(sm);
  sm = mixed_master ^ (0x9e3779b97f4a7c15ULL * (stream_index + 1));
  return splitmix64(sm);
}

/// xoshiro256** PRNG. Not cryptographic; fast, 256-bit state, period 2^256-1.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedDefa017ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
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

  /// Uniform in [0, n). Lemire's multiply-shift with rejection.
  std::uint64_t below(std::uint64_t n) {
    if (n == 0) return 0;
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    if (hi <= lo) return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Bernoulli trial.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard exponential with given mean.
  double exponential(double mean);

  /// Poisson-distributed count (Knuth for small lambda, normal approx above).
  std::uint64_t poisson(double lambda);

  /// Fork a statistically independent child stream. Mixing in a label keeps
  /// child streams stable when components are added or reordered.
  [[nodiscard]] Rng fork(std::string_view label) const;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace pofi::sim
