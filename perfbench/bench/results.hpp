#pragma once
// The benchmark's metric printer.
//
// Every number the benchmark reports goes through Results: a name, a unit
// and a value, in the order measured. table() is the human-readable view
// printed above the result; result_line() is the one-line JSON object that
// ends standard output:
//
//   {"correct":true,"attempted":N,"failed":0,
//    "metrics":{"ops_per_s":{"value":191.2,"unit":"1/s"},...}}

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class Results {
public:
  /// Record a metric. Throws perftrack::Error on a duplicate or malformed
  /// name (letters, digits, '_', '.', '-'; at most 64), a malformed unit
  /// (letters, digits, '_', '/', '%', '.', '-'; at most 16) or a value that
  /// is not finite.
  void add(const std::string& name, const std::string& unit, double value);

  bool has(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// One metric per line: name, value and unit, aligned.
  std::string table() const;

  /// The JSON result object, every metric with its value and unit.
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;

private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
