#include "cluster/scatter.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "testing/test_traces.hpp"

namespace perftrack::cluster {
namespace {

Frame sample_frame() {
  testing::MiniTraceSpec spec;
  spec.tasks = 3;
  spec.iterations = 4;
  spec.phases = {
      {8e6, 1.0, {"heavy", "a.c", 10}},
      {1e6, 2.0, {"mid", "a.c", 20}},
  };
  ClusteringParams params;
  params.log_scale = {true, false};
  params.dbscan.eps = 0.05;
  params.dbscan.min_pts = 3;
  return build_frame(testing::make_mini_trace(spec), params);
}

TEST(ScatterTest, AsciiContainsLabelAndSymbols) {
  Frame frame = sample_frame();
  ScatterOptions options;
  options.width = 40;
  options.height = 10;
  std::string art = ascii_scatter(frame, options);
  EXPECT_NE(art.find("mini"), std::string::npos);
  EXPECT_NE(art.find('1'), std::string::npos);
  EXPECT_NE(art.find('2'), std::string::npos);
  // Axis footer present.
  EXPECT_NE(art.find("x: ["), std::string::npos);
}

TEST(ScatterTest, RelabelChangesSymbols) {
  Frame frame = sample_frame();
  ScatterOptions options;
  options.width = 40;
  options.height = 10;
  std::vector<std::int32_t> relabel{7, 8};  // display ids 8 and 9
  std::string art = ascii_scatter(frame, options, &relabel);
  // Only inspect the grid area (the axis footer contains digits too).
  std::string grid = art.substr(0, art.find("+-"));
  EXPECT_EQ(grid.find('1'), std::string::npos);
  EXPECT_NE(grid.find('8'), std::string::npos);
  EXPECT_NE(grid.find('9'), std::string::npos);
}

TEST(ScatterTest, LogYAxis) {
  Frame frame = sample_frame();
  ScatterOptions options;
  options.width = 40;
  options.height = 10;
  options.x_axis = 1;
  options.y_axis = 0;
  options.log_y = true;
  std::string art = ascii_scatter(frame, options);
  EXPECT_NE(art.find("(log)"), std::string::npos);
}

TEST(ScatterTest, TooSmallGridThrows) {
  Frame frame = sample_frame();
  ScatterOptions options;
  options.width = 1;
  EXPECT_THROW(ascii_scatter(frame, options), PreconditionError);
}

TEST(ScatterTest, BadAxisThrows) {
  Frame frame = sample_frame();
  ScatterOptions options;
  options.y_axis = 5;
  EXPECT_THROW(ascii_scatter(frame, options), PreconditionError);
}

}  // namespace
}  // namespace perftrack::cluster
