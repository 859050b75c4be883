// The paper (§2): "While the experiments described hereafter define these
// two dimensions, the whole process can be likewise applied to any
// arbitrary number of dimensions." These tests run the full pipeline in a
// 3-D metric space (Instructions x IPC x L2 misses/Ki) and a 1-D space.

#include <cmath>
#include <gtest/gtest.h>

#include "sim/apps/apps.hpp"
#include "tracking/session.hpp"

namespace perftrack::tracking {
namespace {

cluster::ClusteringParams three_axis_params() {
  cluster::ClusteringParams params;
  params.projection.metrics = {trace::Metric::Instructions,
                               trace::Metric::Ipc,
                               trace::Metric::L2MissesPerKi};
  params.log_scale = {true, false, false};
  params.dbscan.eps = 0.04;
  params.dbscan.min_pts = 5;
  params.min_cluster_time_fraction = 0.005;
  return params;
}

TEST(MultiDimTracking, ThreeMetricSpaceTracksNasBt) {
  sim::AppModel app = sim::make_nas_bt();
  SessionConfig config;
  config.clustering = three_axis_params();
  TrackingSession session(config);
  for (double scale : {1.0, 4.0, 16.0}) {
    sim::Scenario scenario;
    scenario.label = "scale " + std::to_string(scale);
    scenario.num_tasks = 16;
    scenario.problem_scale = scale;
    scenario.platform = sim::marenostrum();
    scenario.seed = 600 + static_cast<std::uint64_t>(scale);
    session.append_experiment(app.simulate_shared(scenario));
  }
  TrackingResult result = session.retrack();
  // The six regions stay identifiable and tracked in 3-D as well.
  for (const auto& frame : result.frames)
    EXPECT_EQ(frame.object_count(), 6u) << frame.label();
  EXPECT_EQ(result.complete_count, 6u);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  EXPECT_EQ(result.scale.dims(), 3u);
  EXPECT_TRUE(result.scale.task_weighted(0));
  EXPECT_FALSE(result.scale.task_weighted(2));
}

TEST(MultiDimTracking, SingleMetricSpaceStillWorks) {
  // A 1-D space (instructions only) can separate regions with distinct
  // instruction counts and track them.
  sim::AppModel app = sim::make_nas_ft();
  SessionConfig config;
  config.clustering.projection.metrics = {trace::Metric::Instructions};
  config.clustering.log_scale = {true};
  config.clustering.dbscan.eps = 0.05;
  config.clustering.dbscan.min_pts = 5;
  TrackingSession session(config);
  for (int i = 0; i < 3; ++i) {
    sim::Scenario scenario;
    scenario.label = "step " + std::to_string(i);
    scenario.num_tasks = 16;
    scenario.problem_scale = std::pow(1.25, i);
    scenario.platform = sim::minotauro();
    scenario.seed = 700 + static_cast<std::uint64_t>(i);
    session.append_experiment(app.simulate_shared(scenario));
  }
  TrackingResult result = session.retrack();
  EXPECT_EQ(result.complete_count, 2u);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
}

}  // namespace
}  // namespace perftrack::tracking
