#include "cluster/autotune.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "geom/nn_tree.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::cluster {

AutotuneResult suggest_dbscan_params(const geom::PointSet& points,
                                     std::size_t min_pts) {
  PT_SPAN("autotune");
  PT_REQUIRE(min_pts >= 1, "min_pts must be >= 1");
  PT_REQUIRE(points.size() > min_pts,
             "auto-tuning needs more points than min_pts");

  const geom::NnTree tree(points);
  AutotuneResult result;
  result.min_pts = min_pts;
  result.k_distances.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    // k_nearest includes the point itself at distance 0, so ask for
    // min_pts + 1 and take the last — the distance to the min_pts-th
    // neighbour, matching DBSCAN's neighbourhood count convention.
    const std::size_t kth = tree.k_nearest(points[i], min_pts + 1).back();
    result.k_distances.push_back(geom::distance(points[i], points[kth]));
  }
  std::sort(result.k_distances.begin(), result.k_distances.end(),
            std::greater<>());

  // Knee: the curve point farthest from the segment joining its endpoints.
  const auto& curve = result.k_distances;
  const double n = static_cast<double>(curve.size() - 1);
  const double y0 = curve.front();
  const double y1 = curve.back();
  // Normalise both axes so the distance is scale-free.
  const double y_span = std::max(y0 - y1, 1e-300);
  double best = -1.0;
  std::size_t best_index = curve.size() - 1;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    double x = static_cast<double>(i) / n;
    double y = (curve[i] - y1) / y_span;
    // Segment from (0,1) to (1,0): distance ∝ |x + y - 1|.
    double deviation = std::fabs(x + y - 1.0);
    if (deviation > best) {
      best = deviation;
      best_index = i;
    }
  }
  result.knee_index = best_index;
  result.eps = curve[best_index];
  if (result.eps <= 0.0) {
    // Degenerate data (duplicates): fall back to a small positive radius.
    result.eps = 1e-6;
  }
  PT_GAUGE("autotune_eps", result.eps);
  return result;
}

}  // namespace perftrack::cluster
