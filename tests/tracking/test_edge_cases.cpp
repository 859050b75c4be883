// Degenerate and adversarial inputs the pipeline must survive: frames
// without objects, fully pruned relation graphs, single-object frames,
// disappearing structure, and noise-only clusterings.

#include <gtest/gtest.h>

#include "testing/test_traces.hpp"
#include "tracking/report.hpp"
#include "tracking/tracker.hpp"

namespace perftrack::tracking {
namespace {

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

cluster::ClusteringParams loose_clustering() {
  cluster::ClusteringParams params;
  params.log_scale = {true, false};
  params.dbscan.eps = 0.05;
  params.dbscan.min_pts = 3;
  return params;
}

cluster::Frame frame_of(const MiniTraceSpec& spec,
                        const cluster::ClusteringParams& params) {
  return cluster::build_frame(make_mini_trace(spec), params);
}

TEST(TrackingEdgeCases, FrameWithNoObjectsYieldsZeroCoverage) {
  // min_pts higher than any cluster size: everything is noise.
  MiniTraceSpec spec;
  spec.label = "noise";
  spec.tasks = 2;
  spec.iterations = 2;
  spec.phases = {MiniPhase{1e6, 1.0}};
  cluster::ClusteringParams params = loose_clustering();
  params.dbscan.min_pts = 50;
  std::vector<cluster::Frame> frames{frame_of(spec, params),
                                     frame_of(spec, params)};
  ASSERT_EQ(frames[0].object_count(), 0u);
  TrackingResult result = track_frames(std::move(frames), {});
  EXPECT_EQ(result.complete_count, 0u);
  EXPECT_DOUBLE_EQ(result.coverage, 0.0);
  EXPECT_TRUE(result.regions.empty());
  // Reports must not crash on the empty result.
  EXPECT_FALSE(describe_tracking(result).empty());
  EXPECT_FALSE(trends_csv(result).empty());
}

TEST(TrackingEdgeCases, OneEmptyFrameAmongNormalOnes) {
  MiniTraceSpec normal;
  normal.label = "normal";
  normal.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                   MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  cluster::ClusteringParams params = loose_clustering();
  cluster::ClusteringParams all_noise = loose_clustering();
  all_noise.dbscan.min_pts = 10000;
  std::vector<cluster::Frame> frames{frame_of(normal, params),
                                     frame_of(normal, all_noise),
                                     frame_of(normal, params)};
  TrackingResult result = track_frames(std::move(frames), {});
  // Nothing can span the empty middle frame.
  EXPECT_EQ(result.complete_count, 0u);
  EXPECT_DOUBLE_EQ(result.coverage, 0.0);
  // The outer frames' objects survive as partial regions.
  EXPECT_EQ(result.regions.size(), 4u);
}

TEST(TrackingEdgeCases, SingleObjectFrames) {
  MiniTraceSpec spec;
  spec.label = "mono";
  spec.phases = {MiniPhase{5e6, 1.0, {"only", "x.c", 1}}};
  cluster::ClusteringParams params = loose_clustering();
  std::vector<cluster::Frame> frames{frame_of(spec, params),
                                     frame_of(spec, params)};
  TrackingResult result = track_frames(std::move(frames), {});
  EXPECT_EQ(result.complete_count, 1u);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
}

TEST(TrackingEdgeCases, DisjointCallstacksPruneEverything) {
  // Same performance space positions but disjoint source references: the
  // call-stack evaluator must veto every link.
  MiniTraceSpec a;
  a.label = "A";
  a.phases = {MiniPhase{5e6, 1.0, {"alpha", "a.c", 1}}};
  MiniTraceSpec b = a;
  b.label = "B";
  b.phases = {MiniPhase{5e6, 1.0, {"beta", "b.c", 2}}};
  cluster::ClusteringParams params = loose_clustering();
  std::vector<cluster::Frame> frames{frame_of(a, params),
                                     frame_of(b, params)};
  TrackingResult result = track_frames(std::move(frames), {});
  EXPECT_EQ(result.complete_count, 0u);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].relations.size(), 0u);
  EXPECT_EQ(result.pairs[0].relations.unmatched_left.size(), 1u);
  EXPECT_EQ(result.pairs[0].relations.unmatched_right.size(), 1u);
  // With the call-stack heuristic disabled, the link is accepted.
  TrackingParams no_prune;
  no_prune.use_callstack = false;
  std::vector<cluster::Frame> frames2{frame_of(a, params),
                                      frame_of(b, params)};
  TrackingResult permissive = track_frames(std::move(frames2), no_prune);
  EXPECT_EQ(permissive.complete_count, 1u);
}

TEST(TrackingEdgeCases, AllEvaluatorsDisabledTracksNothing) {
  MiniTraceSpec spec;
  spec.label = "x";
  spec.phases = {MiniPhase{5e6, 1.0, {"p", "x.c", 1}}};
  cluster::ClusteringParams cparams = loose_clustering();
  std::vector<cluster::Frame> frames{frame_of(spec, cparams),
                                     frame_of(spec, cparams)};
  TrackingParams params;
  params.use_displacement = false;
  params.use_spmd = false;
  params.use_sequence = false;
  TrackingResult result = track_frames(std::move(frames), params);
  EXPECT_EQ(result.complete_count, 0u);
}

TEST(TrackingEdgeCases, ManyFramesChainCorrectly) {
  // A long 12-frame sequence with mild drift: chaining must stay intact.
  cluster::ClusteringParams params = loose_clustering();
  std::vector<cluster::Frame> frames;
  for (int i = 0; i < 12; ++i) {
    MiniTraceSpec spec;
    spec.label = "t" + std::to_string(i);
    spec.seed = 900 + static_cast<std::uint64_t>(i);
    spec.phases = {
        MiniPhase{8e6 * (1.0 + 0.02 * i), 1.0, {"p1", "x.c", 1}},
        MiniPhase{1e6, 2.0 * (1.0 - 0.01 * i), {"p2", "x.c", 2}}};
    frames.push_back(frame_of(spec, params));
  }
  TrackingResult result = track_frames(std::move(frames), {});
  EXPECT_EQ(result.complete_count, 2u);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  for (const auto& region : result.regions)
    EXPECT_EQ(region.frames_present(), 12u);
}

TEST(TrackingEdgeCases, ReversedSequenceTracksTheSameStructure) {
  // Tracking is built from pairwise relations; playing the sequence
  // backwards must find the same number of complete regions.
  cluster::ClusteringParams params = loose_clustering();
  std::vector<cluster::Frame> forward;
  for (int i = 0; i < 4; ++i) {
    MiniTraceSpec spec;
    spec.label = "t" + std::to_string(i);
    spec.seed = 800 + static_cast<std::uint64_t>(i);
    spec.phases = {
        MiniPhase{8e6, 1.0 - 0.05 * i, {"p1", "x.c", 1}},
        MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
    forward.push_back(frame_of(spec, params));
  }
  std::vector<cluster::Frame> backward(forward.rbegin(), forward.rend());
  TrackingResult fwd = track_frames(std::move(forward), {});
  TrackingResult bwd = track_frames(std::move(backward), {});
  EXPECT_EQ(fwd.complete_count, bwd.complete_count);
  EXPECT_DOUBLE_EQ(fwd.coverage, bwd.coverage);
}

TEST(TrackingEdgeCases, TrackingIsFullyDeterministic) {
  cluster::ClusteringParams params = loose_clustering();
  auto build = [&]() {
    std::vector<cluster::Frame> frames;
    for (int i = 0; i < 3; ++i) {
      MiniTraceSpec spec;
      spec.label = "d" + std::to_string(i);
      spec.seed = 850 + static_cast<std::uint64_t>(i);
      spec.noise = 0.02;
      spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                     MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
      frames.push_back(frame_of(spec, params));
    }
    return track_frames(std::move(frames), {});
  };
  TrackingResult a = build();
  TrackingResult b = build();
  EXPECT_EQ(a.complete_count, b.complete_count);
  EXPECT_EQ(a.renaming, b.renaming);
  for (std::size_t p = 0; p < a.pairs.size(); ++p)
    EXPECT_EQ(a.pairs[p].relations.relations,
              b.pairs[p].relations.relations);
}

TEST(TrackingEdgeCases, IdenticalPhasesSameLineGroupIntoOneRegion) {
  // Two phases with literally identical behaviour and the same source
  // line: DBSCAN merges them into one cluster — one region, no crash.
  MiniTraceSpec spec;
  spec.label = "twin";
  spec.phases = {MiniPhase{5e6, 1.0, {"f", "x.c", 7}},
                 MiniPhase{5e6, 1.0, {"f", "x.c", 7}}};
  cluster::ClusteringParams params = loose_clustering();
  std::vector<cluster::Frame> frames{frame_of(spec, params),
                                     frame_of(spec, params)};
  ASSERT_EQ(frames[0].object_count(), 1u);
  TrackingResult result = track_frames(std::move(frames), {});
  EXPECT_EQ(result.complete_count, 1u);
}

}  // namespace
}  // namespace perftrack::tracking
