#include "bench/quantile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Quantile, NearestRankOnSupportedSamples) {
  EXPECT_DOUBLE_EQ(perfbench::quantile(one_to(100), 0.50), 50.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile(one_to(100), 0.90), 90.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile(one_to(1000), 0.99), 990.0);
}

TEST(Quantile, IgnoresInputOrder) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(perfbench::quantile(v, 0.95), 190.0);
}

TEST(Quantile, CountsSamplesBeyond) {
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(perfbench::samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(perfbench::samples_beyond(100, 0.90), 10u);
  EXPECT_EQ(perfbench::samples_beyond(0, 0.50), 0u);
}

TEST(Quantile, RefusesATailWithFewerThanTenSamplesBeyond) {
  EXPECT_TRUE(perfbench::tail_supported(1000, 0.99));
  EXPECT_FALSE(perfbench::tail_supported(999, 0.99));
  EXPECT_THROW(perfbench::quantile(one_to(999), 0.99), perftrack::Error);
  EXPECT_THROW(perfbench::quantile(one_to(199), 0.95), perftrack::Error);
  EXPECT_NO_THROW(perfbench::quantile(one_to(200), 0.95));
  // The median needs ten samples above it too.
  EXPECT_THROW(perfbench::quantile(one_to(19), 0.50), perftrack::Error);
  EXPECT_THROW(perfbench::quantile({}, 0.50), perftrack::Error);
}

TEST(Quantile, RejectsOutOfRangeQ) {
  EXPECT_THROW(perfbench::quantile(one_to(100), 0.0), perftrack::Error);
  EXPECT_THROW(perfbench::quantile(one_to(100), 1.0), perftrack::Error);
}

}  // namespace
