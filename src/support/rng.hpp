// Deterministic pseudo-random number generation (xoshiro256**) used by the
// workload generators and the fault injectors. Deterministic seeding keeps
// every benchmark and property test reproducible across runs.
#pragma once

#include <cstdint>

namespace peppher {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
/// reimplemented here; fast, high-quality, 2^256-1 period.
class Rng {
 public:
  /// Seeds via splitmix64 so that any 64-bit seed yields a good state.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next raw 64 random bits.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, bound); bound must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Approximately normal via sum of uniforms (Irwin–Hall, 12 terms);
  /// adequate for workload jitter, not for statistics.
  double normal(double mean, double stddev) noexcept;

 private:
  std::uint64_t state_[4];
};

}  // namespace peppher
