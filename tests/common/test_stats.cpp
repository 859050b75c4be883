#include "common/stats.hpp"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace perftrack {
namespace {

TEST(RunningStats, EmptyIsAllZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
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

// Property: the running mean matches the two-pass mean across random
// inputs.
class RunningStatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunningStatsProperty, MatchesTwoPassMean) {
  Rng rng(GetParam());
  RunningStats s;
  double sum = 0.0, lo = 0.0, hi = 0.0;
  const int n = static_cast<int>(rng.uniform_int(2, 300));
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(rng.uniform(-50.0, 50.0), 5.0);
    sum += v;
    lo = i == 0 ? v : std::min(lo, v);
    hi = i == 0 ? v : std::max(hi, v);
    s.add(v);
  }
  EXPECT_EQ(s.count(), static_cast<std::size_t>(n));
  EXPECT_NEAR(s.mean(), sum / n, 1e-9);
  EXPECT_EQ(s.min(), lo);
  EXPECT_EQ(s.max(), hi);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunningStatsProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace perftrack
