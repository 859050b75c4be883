#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>

namespace perftrack {
namespace {

// ---------------------------------------------------------------------------
// detail::LazyMt19937_64 against its oracle, std::mt19937_64.

/// Compare `draws` outputs of the lazy engine and std::mt19937_64 for
/// `seed`; returns the index of the first mismatch, or -1.
long first_mismatch(std::uint64_t seed, int draws) {
  std::mt19937_64 oracle(seed);
  detail::LazyMt19937_64 lazy(seed);
  for (int i = 0; i < draws; ++i)
    if (lazy() != oracle()) return i;
  return -1;
}

// 1,300 draws cross the lazy first half-round (156), the first full round
// (312) and three regenerations after it.
constexpr int kDrawsPastRegenerations = 1300;

TEST(LazyMt19937_64Test, MatchesStdEngineOnBoundarySeeds) {
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                             ~std::uint64_t{0}, std::uint64_t{5489}}) {
    SCOPED_TRACE(seed);
    EXPECT_EQ(first_mismatch(seed, kDrawsPastRegenerations), -1);
  }
}

TEST(LazyMt19937_64Test, MatchesStdEngineOnRandomSeeds) {
  std::mt19937_64 seeds(20131117);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t seed = seeds();
    SCOPED_TRACE(seed);
    ASSERT_EQ(first_mismatch(seed, kDrawsPastRegenerations), -1);
  }
}

TEST(LazyMt19937_64Test, TenThousandthDrawIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a default-
  // constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  detail::LazyMt19937_64 engine(5489);
  std::uint64_t value = 0;
  for (int i = 0; i < 10000; ++i) value = engine();
  EXPECT_EQ(value, 9981545732273789042ull);
}

TEST(LazyMt19937_64Test, CopyMidRoundContinuesTheSameSequence) {
  for (int taken : {0, 1, 155, 156, 157, 311, 312, 313}) {
    SCOPED_TRACE(taken);
    detail::LazyMt19937_64 engine(99);
    std::mt19937_64 oracle(99);
    for (int i = 0; i < taken; ++i) {
      engine();
      oracle();
    }
    detail::LazyMt19937_64 copy = engine;
    for (int i = 0; i < kDrawsPastRegenerations; ++i) {
      const std::uint64_t expected = oracle();
      ASSERT_EQ(engine(), expected);
      ASSERT_EQ(copy(), expected);
    }
  }
}

TEST(RngTest, DistributionsMatchTheStdEngine) {
  // Every Rng distribution must return what the same std:: distribution
  // returns over std::mt19937_64, bit for bit, across regenerations.
  std::mt19937_64 seeds(7);
  for (int stream = 0; stream < 200; ++stream) {
    const std::uint64_t seed = seeds();
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 300; ++i) {
      ASSERT_EQ(rng.uniform(-2.5, 7.0),
                std::uniform_real_distribution<double>(-2.5, 7.0)(oracle));
      ASSERT_EQ(rng.uniform_int(-3, 1000),
                std::uniform_int_distribution<std::int64_t>(-3, 1000)(oracle));
      ASSERT_EQ(rng.normal(10.0, 2.0),
                std::normal_distribution<double>(10.0, 2.0)(oracle));
      ASSERT_EQ(rng.jitter(0.05),
                std::exp(std::normal_distribution<double>(0.0, 0.05)(oracle)));
      ASSERT_EQ(rng.chance(0.3), std::bernoulli_distribution(0.3)(oracle));
    }
  }
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DeriveIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng c1 = parent.derive("phase", 3);
  Rng c2 = Rng(7).derive("phase", 3);
  EXPECT_EQ(c1.seed(), c2.seed());
  // Deriving does not consume parent randomness.
  Rng p1(7), p2(7);
  (void)p1.derive("x", 0);
  EXPECT_DOUBLE_EQ(p1.uniform(0.0, 1.0), p2.uniform(0.0, 1.0));
}

TEST(RngTest, DeriveTagAndIndexMatter) {
  Rng parent(7);
  EXPECT_NE(parent.derive("a", 0).seed(), parent.derive("b", 0).seed());
  EXPECT_NE(parent.derive("a", 0).seed(), parent.derive("a", 1).seed());
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= v == 1;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalZeroStddevReturnsMean) {
  Rng rng(3);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, -1.0), 5.0);
}

TEST(RngTest, NormalClampedStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.normal_clamped(0.0, 10.0, -1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngTest, JitterPositiveCentredOnOne) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.jitter(0.05);
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 5000.0, 1.0, 0.01);
  EXPECT_DOUBLE_EQ(rng.jitter(0.0), 1.0);
}

TEST(RngTest, ChanceRoughProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.chance(0.25)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

}  // namespace
}  // namespace perftrack
