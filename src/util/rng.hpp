// Deterministic pseudo-random number generation. Every stochastic element in
// the repository (link loss, clock drift, workload arrivals) draws from an
// Rng seeded from the experiment configuration, making runs reproducible.
//
// This file is the one sanctioned randomness funnel: evm_lint rule D3 bans
// rand(), std::random_device, the std engines and the std distributions
// everywhere else in the tree (the std distributions are implementation-
// defined, so identical seeds produce different streams across stdlibs).
#pragma once

#include <cmath>
#include <cstdint>

namespace evm::util {

/// xoshiro256** seeded via SplitMix64. Small, fast, and good enough for
/// simulation workloads; not for cryptography.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n) {
    // Lemire-style rejection-free bounded draw (bias negligible for sim use).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool bernoulli(double p) { return next_double() < p; }

  /// Standard normal via Box-Muller (one value per call; simple > fast here).
  double normal(double mean = 0.0, double stddev = 1.0) {
    const double u1 = next_double();
    const double u2 = next_double();
    return normal_from(u1, u2, mean, stddev);
  }

  /// The Box-Muller transform normal() applies to its two uniforms, for a
  /// caller that draws them now and needs the value only later, if at all.
  static double normal_from(double u1, double u2, double mean, double stddev) {
    if (u1 < 1e-300) u1 = 1e-300;
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(6.28318530717958647692 * u2);
  }

  /// Exponential with given rate (events per unit).
  double exponential(double rate) {
    double u = next_double();
    if (u < 1e-300) u = 1e-300;
    return -std::log(u) / rate;
  }

  /// Derive an independent child stream (for per-node generators).
  Rng fork() { return Rng(next_u64()); }

  /// SplitMix64 finalizer over two words: a cheap, well-mixed way to derive
  /// one independent stream seed per (campaign seed, run index) pair.
  static constexpr std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace evm::util
