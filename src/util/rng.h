// Seeded random number generator used throughout the simulator.
//
// All randomness in a simulation flows through a single Rng instance owned by
// the Simulator, which makes every run reproducible from its seed. The class
// wraps std::mt19937_64 with the small set of draws the library needs.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "src/util/logging.h"

namespace dibs {

class Rng {
 public:
  explicit Rng(uint64_t seed = 1) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    DIBS_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Uniform real in [0, 1).
  double UniformDouble() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  // Uniform real in [lo, hi).
  double UniformDouble(double lo, double hi) {
    DIBS_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean) {
    DIBS_DCHECK(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return std::bernoulli_distribution(p)(engine_);
  }

  // Selects k distinct values from [0, n) uniformly at random.
  // Requires 0 <= k <= n. Cost is O(n) — fine for host counts in this library.
  std::vector<int> SampleWithoutReplacement(int n, int k) {
    DIBS_DCHECK(k >= 0 && k <= n);
    std::vector<int> all(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      all[static_cast<size_t>(i)] = i;
    }
    // Partial Fisher-Yates: only the first k positions need shuffling.
    for (int i = 0; i < k; ++i) {
      const int j = static_cast<int>(UniformInt(i, n - 1));
      std::swap(all[static_cast<size_t>(i)], all[static_cast<size_t>(j)]);
    }
    all.resize(static_cast<size_t>(k));
    return all;
  }

  // Raw 64-bit draw, for hashing-style consumers.
  uint64_t NextUint64() { return engine_(); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dibs

#endif  // SRC_UTIL_RNG_H_
