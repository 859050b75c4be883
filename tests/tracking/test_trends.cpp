#include "tracking/trends.hpp"

#include <gtest/gtest.h>

#include "sim/studies.hpp"
#include "testing/test_traces.hpp"
#include "tracking/report.hpp"

namespace perftrack::tracking {
namespace {

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

cluster::ClusteringParams clustering() {
  cluster::ClusteringParams params;
  params.log_scale = {true, false};
  params.dbscan.eps = 0.05;
  params.dbscan.min_pts = 3;
  return params;
}

/// Two frames where the heavy phase's IPC drops from 1.0 to 0.8 and the
/// light phase is unchanged.
TrackingResult tracked_pair() {
  MiniTraceSpec a;
  a.label = "A";
  a.tasks = 4;
  a.iterations = 5;
  a.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
              MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  MiniTraceSpec b = a;
  b.label = "B";
  b.phases[0].ipc = 0.8;
  std::vector<cluster::Frame> frames{
      cluster::build_frame(make_mini_trace(a), clustering()),
      cluster::build_frame(make_mini_trace(b), clustering())};
  return track_frames(std::move(frames), {});
}

TEST(TrendsTest, MetricMeansMatchModel) {
  TrackingResult result = tracked_pair();
  ASSERT_EQ(result.complete_count, 2u);
  auto ipc = region_metric_mean(result, 0, trace::Metric::Ipc);
  ASSERT_EQ(ipc.size(), 2u);
  EXPECT_NEAR(ipc[0], 1.0, 1e-9);
  EXPECT_NEAR(ipc[1], 0.8, 1e-9);
  auto instr = region_metric_mean(result, 0, trace::Metric::Instructions);
  EXPECT_NEAR(instr[0], 8e6, 1.0);
  EXPECT_NEAR(instr[1], 8e6, 1.0);
}

TEST(TrendsTest, CounterTotalsAggregateAllBursts) {
  TrackingResult result = tracked_pair();
  auto totals = region_counter_total(result, 0,
                                     trace::Counter::Instructions);
  // 4 tasks x 5 iterations x 8e6.
  EXPECT_NEAR(totals[0], 4.0 * 5.0 * 8e6, 1.0);
  EXPECT_NEAR(totals[1], totals[0], 1.0);
}

TEST(TrendsTest, DurationTotalsReflectIpcLoss) {
  TrackingResult result = tracked_pair();
  auto duration = region_duration_total(result, 0);
  // Same instructions at 0.8x IPC -> 1.25x duration.
  EXPECT_NEAR(duration[1] / duration[0], 1.25, 1e-9);
}

TEST(TrendsTest, BurstCounts) {
  TrackingResult result = tracked_pair();
  auto counts = region_burst_count(result, 0);
  EXPECT_EQ(counts[0], 20u);
  EXPECT_EQ(counts[1], 20u);
}

TEST(TrendsTest, OneWalkColumnsEqualTheirHelpersBitForBit) {
  // A study with noisy bursts, so each column's sum depends on its order.
  const sim::Study study = sim::study_gromacs_scaling();
  const TrackingResult result = track_frames(study.frames(), {});
  ASSERT_GT(result.complete_count, 0u);
  using trace::Metric;
  for (const TrackedRegion& region : result.regions) {
    const int id = region.id;
    const RegionTrends t = region_trends(result, id);
    const std::string where = "region " + std::to_string(id);
    // vector<double>'s operator== compares elements with ==, so a column
    // that differs from its helper in the last bit fails.
    EXPECT_EQ(t.ipc, region_metric_mean(result, id, Metric::Ipc)) << where;
    EXPECT_EQ(t.instructions_mean,
              region_metric_mean(result, id, Metric::Instructions))
        << where;
    EXPECT_EQ(t.instructions_total,
              region_counter_total(result, id, trace::Counter::Instructions))
        << where;
    EXPECT_EQ(t.duration_total, region_duration_total(result, id)) << where;
    EXPECT_EQ(t.l1_miss_per_ki,
              region_metric_mean(result, id, Metric::L1MissesPerKi))
        << where;
    EXPECT_EQ(t.l2_miss_per_ki,
              region_metric_mean(result, id, Metric::L2MissesPerKi))
        << where;
    EXPECT_EQ(t.tlb_miss_per_ki,
              region_metric_mean(result, id, Metric::TlbMissesPerKi))
        << where;
    EXPECT_EQ(t.bursts, region_burst_count(result, id)) << where;
  }
}

TEST(TrendsTest, RelativeHelpers) {
  std::vector<double> series{2.0, 1.0, 4.0};
  auto first = relative_to_first(series);
  EXPECT_DOUBLE_EQ(first[0], 1.0);
  EXPECT_DOUBLE_EQ(first[1], 0.5);
  EXPECT_DOUBLE_EQ(first[2], 2.0);
  auto peak = relative_to_max(series);
  EXPECT_DOUBLE_EQ(peak[2], 1.0);
  EXPECT_DOUBLE_EQ(peak[1], 0.25);
  EXPECT_DOUBLE_EQ(max_relative_variation(series), 1.0);
  EXPECT_DOUBLE_EQ(max_relative_variation({}), 0.0);
  EXPECT_DOUBLE_EQ(max_relative_variation({0.0, 1.0}), 0.0);
}

TEST(ReportTest, TrendTableHasOneRowPerCompleteRegion) {
  TrackingResult result = tracked_pair();
  Table table = trend_table(result, trace::Metric::Ipc);
  EXPECT_EQ(table.row_count(), result.complete_count);
  EXPECT_EQ(table.column_count(), 2u + result.frames.size());
}

TEST(ReportTest, TrendChartRendersSeries) {
  std::vector<TrendSeries> series{{"R1", {1.0, 0.8}}, {"R2", {2.0, 2.0}}};
  std::string chart = trend_chart(series, {"A", "B"});
  EXPECT_NE(chart.find('1'), std::string::npos);
  EXPECT_NE(chart.find('2'), std::string::npos);
  EXPECT_NE(chart.find("R1"), std::string::npos);
  EXPECT_NE(chart.find("A"), std::string::npos);
}

TEST(ReportTest, TrendChartHandlesEmptyAndConstant) {
  EXPECT_NE(trend_chart({}, {}).find("no series"), std::string::npos);
  std::vector<TrendSeries> flat{{"R1", {1.0, 1.0, 1.0}}};
  EXPECT_FALSE(trend_chart(flat, {"a", "b", "c"}).empty());
}

TEST(ReportTest, TrendsCsvHasRegionRows) {
  TrackingResult result = tracked_pair();
  std::string csv = trends_csv(result);
  // header + 2 regions x 2 frames.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  EXPECT_NE(csv.find("ipc"), std::string::npos);
}

TEST(ReportTest, DescribeTrackingMentionsCoverage) {
  TrackingResult result = tracked_pair();
  std::string text = describe_tracking(result);
  EXPECT_NE(text.find("coverage 100%"), std::string::npos);
  EXPECT_NE(text.find("Region 1"), std::string::npos);
}

TEST(ReportTest, TrackedScattersRenderEveryFrame) {
  TrackingResult result = tracked_pair();
  std::string art = tracked_scatters(result, 40, 8);
  EXPECT_NE(art.find("A"), std::string::npos);
  EXPECT_NE(art.find("B"), std::string::npos);
}

}  // namespace
}  // namespace perftrack::tracking
