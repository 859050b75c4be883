#include "common/stats.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace perftrack {

void RunningStats::add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = min_ = max_ = x;
    return;
  }
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double percentile(std::span<const double> values, double p) {
  PT_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace perftrack
