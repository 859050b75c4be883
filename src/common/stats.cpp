#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace perftrack {

void RunningStats::add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

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

double mean_of(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double sum_of(std::span<const double> values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double weighted_mean(std::span<const double> values,
                     std::span<const double> weights) {
  PT_REQUIRE(values.size() == weights.size(),
             "values and weights must have equal length");
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    num += values[i] * weights[i];
    den += weights[i];
  }
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace perftrack
