#include "bench/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace perfbench {

namespace {

// Index (0-based) of the nearest-rank q-quantile among n sorted samples.
std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, q);
}

bool tail_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinTailSamples;
}

double quantile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0))
    throw perftrack::Error("quantile: q must lie in (0, 1), got " +
                           std::to_string(q));
  if (!tail_supported(samples.size(), q))
    throw perftrack::Error(
        "quantile: " + std::to_string(samples.size()) +
        " samples leave fewer than " + std::to_string(kMinTailSamples) +
        " beyond the " + std::to_string(q) + " quantile");
  const std::size_t index = rank_index(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

}  // namespace perfbench
