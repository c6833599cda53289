#pragma once

/// \file rng.hpp
/// Deterministic random-number source for simulations.
///
/// One Rng per independent random process (trace generation, workload,
/// protocol tie-breaks); fork() derives uncorrelated substreams so that
/// changing how much randomness one component consumes does not perturb the
/// others — essential for paired comparisons between schemes on the same
/// trace.

#include <cstdint>
#include <random>
#include <vector>

#include "sim/assert.hpp"

namespace dtncache::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Derive an independent substream. Deterministic: fork(k) of an Rng with
  /// a given seed always yields the same substream, regardless of how many
  /// variates were drawn from the parent.
  Rng fork(std::uint64_t salt) const {
    // SplitMix64 finalizer mixes seed and salt; good avalanche keeps
    // substreams decorrelated even for adjacent salts.
    std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return Rng(z);
  }

  /// Uniform in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    DTNCACHE_CHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    DTNCACHE_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  bool bernoulli(double p) {
    DTNCACHE_CHECK(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) {
    DTNCACHE_CHECK(rate > 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Pareto (type I) with scale x_m > 0 and shape alpha > 0.
  /// Heavy-tailed; used for heterogeneous pairwise contact rates.
  double pareto(double xm, double alpha) {
    DTNCACHE_CHECK(xm > 0.0 && alpha > 0.0);
    return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
  }

  /// Pareto truncated to [xm, cap]: rejection-free via inverse CDF of the
  /// truncated distribution.
  double paretoTruncated(double xm, double alpha, double cap) {
    DTNCACHE_CHECK(cap > xm);
    const double fCap = 1.0 - std::pow(xm / cap, alpha);
    const double u = uniform() * fCap;
    return xm / std::pow(1.0 - u, 1.0 / alpha);
  }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

/// Precomputed-CDF Zipf sampler: O(n) construction, O(log n) per draw.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// Draw an index in [0, n); index 0 is most popular.
  std::size_t sample(Rng& rng) const;

  /// P(draw == k).
  double probability(std::size_t k) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace dtncache::sim
