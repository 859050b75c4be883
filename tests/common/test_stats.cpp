#include "common/stats.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace perftrack {
namespace {

TEST(RunningStats, EmptyIsAllZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(99);
  RunningStats all, first, second;
  for (int i = 0; i < 500; ++i) {
    double v = rng.normal(10.0, 3.0);
    all.add(v);
    (i < 200 ? first : second).add(v);
  }
  first.merge(second);
  EXPECT_EQ(first.count(), all.count());
  EXPECT_NEAR(first.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(first.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(first.min(), all.min());
  EXPECT_DOUBLE_EQ(first.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // merging into empty copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, KnownValues) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
}

TEST(Percentile, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 10.0), 7.0);
}

TEST(Percentile, RejectsOutOfRange) {
  std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, -1.0), PreconditionError);
  EXPECT_THROW(percentile(v, 101.0), PreconditionError);
}

TEST(Percentile, MonotoneInP) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 101; ++i) v.push_back(rng.uniform(0.0, 100.0));
  double prev = percentile(v, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    double cur = percentile(v, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(MeanSum, Basics) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.0);
  EXPECT_DOUBLE_EQ(sum_of(v), 6.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(sum_of({}), 0.0);
}

TEST(WeightedMean, Weighted) {
  std::vector<double> v{1.0, 3.0};
  std::vector<double> w{3.0, 1.0};
  EXPECT_DOUBLE_EQ(weighted_mean(v, w), 1.5);
}

TEST(WeightedMean, ZeroWeightsGiveZero) {
  std::vector<double> v{1.0, 3.0};
  std::vector<double> w{0.0, 0.0};
  EXPECT_DOUBLE_EQ(weighted_mean(v, w), 0.0);
}

TEST(WeightedMean, RejectsLengthMismatch) {
  std::vector<double> v{1.0, 3.0};
  std::vector<double> w{1.0};
  EXPECT_THROW(weighted_mean(v, w), PreconditionError);
}

// Property: variance computed by RunningStats matches the two-pass formula
// across random inputs.
class RunningStatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunningStatsProperty, MatchesTwoPassVariance) {
  Rng rng(GetParam());
  std::vector<double> values;
  RunningStats s;
  int n = static_cast<int>(rng.uniform_int(2, 300));
  for (int i = 0; i < n; ++i) {
    double v = rng.normal(rng.uniform(-50.0, 50.0), 5.0);
    values.push_back(v);
    s.add(v);
  }
  double mean = mean_of(values);
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size());
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-7 * std::max(1.0, var));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunningStatsProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace perftrack
