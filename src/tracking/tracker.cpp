#include "tracking/tracker.hpp"

#include "common/error.hpp"
#include "trace/metrics.hpp"
#include "tracking/session.hpp"

namespace perftrack::tracking {

std::size_t TrackedRegion::frames_present() const {
  std::size_t n = 0;
  for (const auto& frame_members : members)
    if (!frame_members.empty()) ++n;
  return n;
}

double TrackingResult::effective_coverage() const {
  if (frames.empty()) return 0.0;
  return coverage * static_cast<double>(frames.size()) /
         static_cast<double>(sequence_length());
}

const TrackedRegion& TrackingResult::region(int id) const {
  PT_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < regions.size(),
             "region id out of range");
  return regions[static_cast<std::size_t>(id)];
}

std::vector<bool> tracking_log_scale(const TrackingParams& params,
                                     const cluster::Frame& first) {
  if (!params.log_scale.empty()) return params.log_scale;
  const auto& metrics = first.projection().metrics;
  std::vector<bool> log_scale(metrics.size());
  for (std::size_t d = 0; d < metrics.size(); ++d)
    log_scale[d] = trace::metric_scales_with_tasks(metrics[d]);
  return log_scale;
}

TrackingResult track_frames(std::vector<cluster::Frame> frames,
                            const TrackingParams& params) {
  PT_REQUIRE(frames.size() >= 2, "tracking needs at least two frames");
  // A batch run is a fresh session replayed. The frames' own axes stand in
  // for the clustering they already went through, so validate() checks
  // params.log_scale against their dimensionality.
  SessionConfig config;
  config.clustering.projection.metrics = frames[0].projection().metrics;
  config.clustering.log_scale.clear();
  config.tracking = params;
  TrackingSession session(std::move(config));
  for (cluster::Frame& frame : frames) session.append_frame(std::move(frame));
  return std::move(session).retrack();
}

}  // namespace perftrack::tracking
