#pragma once
// Percentiles of timed samples.
//
// A tail percentile is only reported when the sample puts at least
// kMinTailSamples observations beyond it; otherwise one slow sample
// decides the number. quantile() throws instead of returning such a value,
// and the workloads keep measuring until every percentile they report is
// supported (tail_supported()).

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

/// Samples strictly above the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// True when n samples support the q-quantile (>= kMinTailSamples beyond).
bool tail_supported(std::size_t n, double q);

/// Nearest-rank q-quantile (q in (0, 1)): the smallest sample with at least
/// q*n samples at or below it. Throws perftrack::Error when the samples do
/// not support q (see tail_supported) or q is out of range.
double quantile(std::vector<double> samples, double q);

}  // namespace perfbench
