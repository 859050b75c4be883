#pragma once
// Descriptive statistics used across the clustering and tracking stages.

#include <cstddef>
#include <span>
#include <vector>

namespace perftrack {

/// Streaming accumulator for count / mean / extrema (Welford's running
/// mean, numerically stable).
class RunningStats {
public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return count_ ? mean_ * static_cast<double>(count_) : 0.0; }

private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation; p in [0,100]. Sorts a copy.
double percentile(std::span<const double> values, double p);

}  // namespace perftrack
