#include "trace/counters.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace perftrack::trace {
namespace {

TEST(CounterSetTest, DefaultsToZero) {
  CounterSet set;
  for (std::size_t i = 0; i < kCounterCount; ++i)
    EXPECT_DOUBLE_EQ(set.get(static_cast<Counter>(i)), 0.0);
}

TEST(CounterSetTest, SetGetAdd) {
  CounterSet set;
  set.set(Counter::Instructions, 1e6);
  set.add(Counter::Instructions, 0.5e6);
  set.set(Counter::Cycles, 3e6);
  EXPECT_DOUBLE_EQ(set.get(Counter::Instructions), 1.5e6);
  EXPECT_DOUBLE_EQ(set.get(Counter::Cycles), 3e6);
  EXPECT_DOUBLE_EQ(set.get(Counter::L1DMisses), 0.0);
}

TEST(CounterSetTest, PlusEqualsIsElementWise) {
  CounterSet a, b;
  a.set(Counter::Instructions, 10.0);
  a.set(Counter::L2Misses, 1.0);
  b.set(Counter::Instructions, 5.0);
  b.set(Counter::TlbMisses, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.get(Counter::Instructions), 15.0);
  EXPECT_DOUBLE_EQ(a.get(Counter::L2Misses), 1.0);
  EXPECT_DOUBLE_EQ(a.get(Counter::TlbMisses), 2.0);
}

TEST(CounterSetTest, Equality) {
  CounterSet a, b;
  EXPECT_EQ(a, b);
  a.set(Counter::Cycles, 1.0);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace perftrack::trace
