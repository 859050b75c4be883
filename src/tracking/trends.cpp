#include "tracking/trends.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace perftrack::tracking {

namespace {

/// Apply `fn(burst)` over every burst of the region in every frame.
template <typename Fn>
void for_each_region_burst(const TrackingResult& result, int region_id,
                           Fn&& fn) {
  const TrackedRegion& region = result.region(region_id);
  for (std::size_t f = 0; f < result.frames.size(); ++f) {
    const cluster::Frame& frame = result.frames[f];
    const auto& bursts = frame.source().bursts();
    for (ObjectId object : region.members[f]) {
      for (std::uint32_t row : frame.object(object).rows) {
        fn(f, bursts[frame.projection().burst_index[row]]);
      }
    }
  }
}

}  // namespace

std::vector<double> region_metric_mean(const TrackingResult& result,
                                       int region_id, trace::Metric metric) {
  std::vector<double> sum(result.frames.size(), 0.0);
  std::vector<std::size_t> count(result.frames.size(), 0);
  for_each_region_burst(result, region_id,
                        [&](std::size_t f, const trace::Burst& b) {
                          sum[f] += trace::evaluate_metric(b, metric);
                          ++count[f];
                        });
  for (std::size_t f = 0; f < sum.size(); ++f)
    if (count[f] > 0) sum[f] /= static_cast<double>(count[f]);
  return sum;
}

std::vector<double> region_counter_total(const TrackingResult& result,
                                         int region_id,
                                         trace::Counter counter) {
  std::vector<double> total(result.frames.size(), 0.0);
  for_each_region_burst(result, region_id,
                        [&](std::size_t f, const trace::Burst& b) {
                          total[f] += b.counters.get(counter);
                        });
  return total;
}

std::vector<double> region_duration_total(const TrackingResult& result,
                                          int region_id) {
  std::vector<double> total(result.frames.size(), 0.0);
  for_each_region_burst(result, region_id,
                        [&](std::size_t f, const trace::Burst& b) {
                          total[f] += b.duration;
                        });
  return total;
}

std::vector<std::size_t> region_burst_count(const TrackingResult& result,
                                            int region_id) {
  std::vector<std::size_t> count(result.frames.size(), 0);
  for_each_region_burst(
      result, region_id,
      [&](std::size_t f, const trace::Burst&) { ++count[f]; });
  return count;
}

RegionTrends region_trends(const TrackingResult& result, int region_id) {
  const std::vector<double> zeros(result.frames.size(), 0.0);
  RegionTrends t{zeros, zeros, zeros, zeros, zeros, zeros, zeros,
                 std::vector<std::size_t>(zeros.size(), 0)};
  const std::pair<std::vector<double>*, trace::Metric> means[] = {
      {&t.ipc, trace::Metric::Ipc},
      {&t.instructions_mean, trace::Metric::Instructions},
      {&t.l1_miss_per_ki, trace::Metric::L1MissesPerKi},
      {&t.l2_miss_per_ki, trace::Metric::L2MissesPerKi},
      {&t.tlb_miss_per_ki, trace::Metric::TlbMissesPerKi}};
  for_each_region_burst(
      result, region_id, [&](std::size_t f, const trace::Burst& b) {
        for (const auto& [column, metric] : means)
          (*column)[f] += trace::evaluate_metric(b, metric);
        t.instructions_total[f] += b.counters.get(trace::Counter::Instructions);
        t.duration_total[f] += b.duration;
        ++t.bursts[f];
      });
  for (std::size_t f = 0; f < zeros.size(); ++f)
    if (t.bursts[f] > 0)
      for (const auto& mean : means)
        (*mean.first)[f] /= static_cast<double>(t.bursts[f]);
  return t;
}

std::vector<double> relative_to_first(const std::vector<double>& series) {
  std::vector<double> out(series.size(), 0.0);
  if (series.empty() || series.front() == 0.0) return out;
  for (std::size_t i = 0; i < series.size(); ++i)
    out[i] = series[i] / series.front();
  return out;
}

std::vector<double> relative_to_max(const std::vector<double>& series) {
  std::vector<double> out(series.size(), 0.0);
  double peak = 0.0;
  for (double v : series) peak = std::max(peak, v);
  if (peak == 0.0) return out;
  for (std::size_t i = 0; i < series.size(); ++i) out[i] = series[i] / peak;
  return out;
}

double max_relative_variation(const std::vector<double>& series) {
  if (series.empty() || series.front() == 0.0) return 0.0;
  double worst = 0.0;
  for (double v : series)
    worst = std::max(worst, std::fabs(v / series.front() - 1.0));
  return worst;
}

}  // namespace perftrack::tracking
