#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

namespace dtncache::sim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng a(7);
  Rng b(7);
  // Consume different amounts from the parents; forks must still agree.
  a.uniform();
  for (int i = 0; i < 50; ++i) b.uniform();
  Rng fa = a.fork(3);
  Rng fb = b.fork(3);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
}

TEST(Rng, ForksWithDifferentSaltsDecorrelated) {
  Rng root(9);
  Rng f1 = root.fork(1);
  Rng f2 = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (f1.uniform() == f2.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(1);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    sawLo |= v == 0;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(5);
  const double rate = 0.25;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(11);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.bernoulli(0.3)) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, ParetoRespectsScale) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ParetoTruncatedStaysInBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.paretoTruncated(1.0, 1.5, 100.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(Rng, ParetoTruncatedIsHeavyTailed) {
  Rng r(3);
  int big = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (r.paretoTruncated(1.0, 1.0, 1000.0) > 10.0) ++big;
  // For alpha=1 truncated at 1000, P(X > 10) ≈ (1/10 - 1/1000)/(1 - 1/1000) ≈ 0.099.
  EXPECT_NEAR(static_cast<double>(big) / n, 0.099, 0.01);
}

TEST(Rng, InvalidParametersThrow) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), InvariantViolation);
  EXPECT_THROW(r.bernoulli(1.5), InvariantViolation);
  EXPECT_THROW(r.pareto(0.0, 1.0), InvariantViolation);
  EXPECT_THROW(r.uniform(5.0, 2.0), InvariantViolation);
}

// The first draws of each distribution, as literals: every generated trace,
// golden count and EXPERIMENTS.md number rests on these streams, so a change
// to any draw's algorithm (another standard library, an own implementation)
// must show here first. Doubles are hex literals, exact to the last bit.
TEST(Rng, FirstDrawsArePinned) {
  Rng u(1);
  EXPECT_EQ(u.uniform(), 0x1.122deafddb438p-3);
  EXPECT_EQ(u.uniform(), 0x1.175c928118c7dp-3);
  EXPECT_EQ(u.uniform(), 0x1.ce0b479deb991p-2);
  EXPECT_EQ(u.uniform(), 0x1.5876015e4d702p-6);

  Rng ranged(2);
  EXPECT_EQ(ranged.uniform(-3.0, 5.0), 0x1.0ea52fda13031p+2);
  EXPECT_EQ(ranged.uniform(-3.0, 5.0), 0x1.e6a44d756beccp+1);
  EXPECT_EQ(ranged.uniform(-3.0, 5.0), 0x1.a2a1d50359d4cp+1);
  EXPECT_EQ(ranged.uniform(-3.0, 5.0), 0x1.19c329b6d9b86p+2);

  Rng small(3);
  for (const std::int64_t expected : {5, 1, 5, 3, 5, 3, 7, 4})
    EXPECT_EQ(small.uniformInt(0, 9), expected);

  // The full 64-bit range, where hi - lo + 1 overflows: each draw is the raw
  // engine output shifted by lo (mod 2^64).
  Rng full(4);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(full.uniformInt(kMin, kMax), 5267436225003336391);
  EXPECT_EQ(full.uniformInt(kMin, kMax), -851690886662571060);
  EXPECT_EQ(full.uniformInt(kMin, kMax), 1738617244330437274);
  EXPECT_EQ(full.uniformInt(kMin, kMax), -8073957877497551694);

  Rng coin(5);
  std::string flips;
  for (int i = 0; i < 16; ++i) flips += coin.bernoulli(0.3) ? '1' : '0';
  EXPECT_EQ(flips, "0110111001101010");

  Rng gaps(6);
  EXPECT_EQ(gaps.exponential(0.5), 0x1.7f1431ec4b28cp+1);
  EXPECT_EQ(gaps.exponential(0.5), 0x1.a474b5fe29f25p+0);
  EXPECT_EQ(gaps.exponential(0.5), 0x1.9fa8dc224618bp+1);
  EXPECT_EQ(gaps.exponential(0.5), 0x1.a5683a3b69ea3p+1);
}

#if defined(__GLIBCXX__)
// Under libstdc++, the reference the pins were taken from: a million mixed
// draws equal the std:: distributions over an mt19937_64 of the same seed,
// and the two engines stay in step (each draw consumes the same outputs).
TEST(Rng, MatchesLibstdcxxDistributionsOverAMillionMixedDraws) {
  constexpr std::uint64_t kSeed = 2024;
  Rng r(kSeed);
  std::mt19937_64 engine(kSeed);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int k = 0; k < 1'000'000; ++k) {
    switch (k % 6) {
      case 0:
        ASSERT_EQ(r.uniform(), std::uniform_real_distribution<double>(0.0, 1.0)(engine)) << k;
        break;
      case 1:
        ASSERT_EQ(r.uniform(-2.5, 7.0),
                  std::uniform_real_distribution<double>(-2.5, 7.0)(engine))
            << k;
        break;
      case 2: {
        // Small and odd-sized ranges take the rejection path most often.
        const std::int64_t hi = 1 + k % 1000;
        ASSERT_EQ(r.uniformInt(-3, hi), std::uniform_int_distribution<std::int64_t>(-3, hi)(engine))
            << k;
        break;
      }
      case 3:
        ASSERT_EQ(r.uniformInt(kMin, kMax),
                  std::uniform_int_distribution<std::int64_t>(kMin, kMax)(engine))
            << k;
        break;
      case 4: {
        const double p = static_cast<double>(k % 101) / 100.0;
        ASSERT_EQ(r.bernoulli(p), std::bernoulli_distribution(p)(engine)) << k;
        break;
      }
      default: {
        const double rate = 0.01 + static_cast<double>(k % 97);
        ASSERT_EQ(r.exponential(rate), std::exponential_distribution<double>(rate)(engine))
            << k;
        break;
      }
    }
  }
}
#endif

TEST(ZipfSampler, ProbabilitiesSumToOne) {
  ZipfSampler z(10, 0.8);
  double sum = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) sum += z.probability(k);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  ZipfSampler z(4, 0.0);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_NEAR(z.probability(k), 0.25, 1e-12);
}

TEST(ZipfSampler, MostPopularIsItemZero) {
  ZipfSampler z(20, 1.0);
  for (std::size_t k = 1; k < 20; ++k) EXPECT_GT(z.probability(0), z.probability(k));
}

TEST(ZipfSampler, EmpiricalFrequencyMatchesTheory) {
  ZipfSampler z(5, 1.2);
  Rng r(17);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.probability(k), 0.01);
}

}  // namespace
}  // namespace dtncache::sim
