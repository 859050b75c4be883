#include "bench/results.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace {

perfbench::Results sample() {
  perfbench::Results results;
  results.add("setup_s", "s", 3.25);
  results.add("ops_per_s", "1/s", 191.5);
  results.add("serve.phase.parse_us", "us", 0.0);
  results.add("bench.tracing_overhead_pct", "%", -1.5);
  return results;
}

TEST(Results, ResultLineCarriesEveryMetricWithItsUnit) {
  const perfbench::Results results = sample();
  const auto doc =
      perftrack::obs::parse_json(results.result_line(true, 20, 0));
  EXPECT_TRUE(doc.at("correct").boolean);
  EXPECT_EQ(doc.at("attempted").number, 20.0);
  EXPECT_EQ(doc.at("failed").number, 0.0);
  const auto& metrics = doc.at("metrics");
  ASSERT_EQ(metrics.object.size(), results.metrics().size());
  for (const perfbench::Metric& m : results.metrics()) {
    ASSERT_TRUE(metrics.has(m.name)) << m.name;
    EXPECT_EQ(metrics.at(m.name).at("unit").string, m.unit);
    EXPECT_DOUBLE_EQ(metrics.at(m.name).at("value").number, m.value);
  }
}

TEST(Results, ResultLineIsOneLine) {
  EXPECT_EQ(sample().result_line(false, 1, 1).find('\n'), std::string::npos);
}

TEST(Results, TableNamesEveryMetricWithItsUnit) {
  const perfbench::Results results = sample();
  const std::string table = results.table();
  for (const perfbench::Metric& m : results.metrics()) {
    const auto at = table.find(m.name);
    ASSERT_NE(at, std::string::npos) << m.name;
    const std::string line = table.substr(at, table.find('\n', at) - at);
    EXPECT_EQ(line.substr(line.size() - m.unit.size()), m.unit) << line;
  }
}

TEST(Results, RefusesDuplicatesAndMalformedMetrics) {
  perfbench::Results results = sample();
  EXPECT_THROW(results.add("setup_s", "s", 1.0), perftrack::Error);
  EXPECT_THROW(results.add("bad name", "s", 1.0), perftrack::Error);
  EXPECT_THROW(results.add(".leading_dot", "s", 1.0), perftrack::Error);
  EXPECT_THROW(results.add("x", "per op", 1.0), perftrack::Error);
  EXPECT_THROW(results.add("x", "", 1.0), perftrack::Error);
  EXPECT_THROW(
      results.add("x", "s", std::numeric_limits<double>::quiet_NaN()),
      perftrack::Error);
  EXPECT_THROW(results.add(std::string(65, 'a'), "s", 1.0), perftrack::Error);
  EXPECT_NO_THROW(results.add(std::string(64, 'a'), "s", 1.0));
}

}  // namespace
