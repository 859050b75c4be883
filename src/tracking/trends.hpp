#pragma once
// Per-region performance trends across the frame sequence (paper §3.5,
// Figs. 7, 10, 11, 12).
//
// Once regions are tracked, their evolution is summarised per frame:
// burst-weighted means for rate metrics (IPC, misses per kilo-instruction),
// totals for counters and durations. relative_series() rebases a series to
// its first (or maximum) value, which is how the paper draws its trend
// charts.

#include <vector>

#include "tracking/tracker.hpp"
#include "trace/metrics.hpp"

namespace perftrack::tracking {

/// Mean of `metric` over the region's bursts, one value per frame
/// (0 where the region is absent).
std::vector<double> region_metric_mean(const TrackingResult& result,
                                       int region_id, trace::Metric metric);

/// Sum of a raw counter over the region's bursts, one value per frame.
std::vector<double> region_counter_total(const TrackingResult& result,
                                         int region_id,
                                         trace::Counter counter);

/// Sum of burst durations of the region, one value per frame.
std::vector<double> region_duration_total(const TrackingResult& result,
                                          int region_id);

/// Number of bursts of the region, one value per frame.
std::vector<std::size_t> region_burst_count(const TrackingResult& result,
                                            int region_id);

/// The eight per-frame columns of trends_csv for one region, filled in one
/// walk over its bursts. Each column sums in the same burst order as its
/// helper above, so it equals that helper's series bit for bit.
struct RegionTrends {
  std::vector<double> ipc, instructions_mean, instructions_total,
      duration_total, l1_miss_per_ki, l2_miss_per_ki, tlb_miss_per_ki;
  std::vector<std::size_t> bursts;
};
RegionTrends region_trends(const TrackingResult& result, int region_id);

/// series / series[0] (1.0-based index chart); zeros stay zero.
std::vector<double> relative_to_first(const std::vector<double>& series);

/// series / max(series) (the paper's Fig. 11b normalisation).
std::vector<double> relative_to_max(const std::vector<double>& series);

/// Largest |relative change| of the series vs its first value, e.g. to
/// select "regions with IPC variations above 3%" (Fig. 7a).
double max_relative_variation(const std::vector<double>& series);

}  // namespace perftrack::tracking
