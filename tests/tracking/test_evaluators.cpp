#include <gtest/gtest.h>

#include <memory>

#include "sim/studies.hpp"
#include "testing/displacement_reference.hpp"
#include "testing/test_traces.hpp"
#include "tracking/evaluator_callstack.hpp"
#include "tracking/evaluator_displacement.hpp"
#include "tracking/evaluator_sequence.hpp"
#include "tracking/evaluator_spmd.hpp"
#include "tracking/frame_alignment.hpp"
#include "tracking/tracker.hpp"

namespace perftrack::tracking {
namespace {

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;
using perftrack::testing::reference_displacement;

cluster::ClusteringParams clustering() {
  cluster::ClusteringParams params;
  params.log_scale = {true, false};
  params.dbscan.eps = 0.05;
  params.dbscan.min_pts = 3;
  return params;
}

cluster::Frame frame_of(const MiniTraceSpec& spec) {
  return cluster::build_frame(make_mini_trace(spec), clustering());
}

// --- Displacement -------------------------------------------------------

TEST(DisplacementEvaluator, StablePhasesClassifyUnivocally) {
  MiniTraceSpec a;
  a.label = "A";
  a.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
              MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  MiniTraceSpec b = a;
  b.label = "B";
  b.seed = 2;
  cluster::Frame fa = frame_of(a), fb = frame_of(b);
  std::vector<cluster::Frame> frames{fa, fb};
  ScaleNormalization scale = ScaleNormalization::fit(frames, {true, false});
  DisplacementResult result = evaluate_displacement(fa, fb, scale, 0.05);
  ASSERT_EQ(result.a_to_b.rows(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(result.a_to_b.at(i, i), 1.0);
    EXPECT_DOUBLE_EQ(result.b_to_a.at(i, i), 1.0);
  }
}

TEST(DisplacementEvaluator, SplitDistributesOneRowOverTwoColumns) {
  // A has one wide cluster; in B it split into two clusters bracketing A's
  // position, so A's points divide between them by proximity (the paper's
  // Fig. 3 row for region 4).
  // An anchor phase keeps the per-frame normalisation stable so the split
  // phase's noise cloud stays one cluster.
  MiniTraceSpec a;
  a.label = "A";
  a.tasks = 8;
  a.noise = 0.04;
  a.phases = {MiniPhase{40e6, 2.0, {"anchor", "x.c", 99}},
              MiniPhase{8e6, 1.0, {"p1", "x.c", 1}}};
  MiniTraceSpec b;
  b.label = "B";
  b.tasks = 8;
  b.phases = {MiniPhase{40e6, 2.0, {"anchor", "x.c", 99}},
              MiniPhase{6.2e6, 1.0, {"p1", "x.c", 1}},
              MiniPhase{10.5e6, 1.0, {"p1", "x.c", 1}}};
  cluster::Frame fa = frame_of(a), fb = frame_of(b);
  ASSERT_EQ(fa.object_count(), 2u);
  ASSERT_EQ(fb.object_count(), 3u);
  std::vector<cluster::Frame> frames{fa, fb};
  ScaleNormalization scale = ScaleNormalization::fit(frames, {true, false});
  DisplacementResult result = evaluate_displacement(fa, fb, scale, 0.05);
  // Object ids by duration: anchor 0 everywhere; B twins are 1 (10.5e6)
  // and 2 (6.2e6). Row A1 (the split phase) distributes over both.
  EXPECT_NEAR(result.a_to_b.at(1, 1) + result.a_to_b.at(1, 2), 1.0, 1e-9);
  EXPECT_GT(result.a_to_b.at(1, 1), 0.1);
  EXPECT_GT(result.a_to_b.at(1, 2), 0.1);
  // Reciprocally, both B twins point back at A1 with certainty.
  EXPECT_DOUBLE_EQ(result.b_to_a.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(result.b_to_a.at(2, 1), 1.0);
}

TEST(DisplacementEvaluator, OutlierThresholdDropsStragglers) {
  MiniTraceSpec a;
  a.label = "A";
  a.tasks = 32;
  a.noise = 0.02;
  a.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
              MiniPhase{7e6, 1.05, {"p2", "x.c", 2}}};
  MiniTraceSpec b = a;
  b.label = "B";
  b.seed = 5;
  cluster::Frame fa = frame_of(a), fb = frame_of(b);
  std::vector<cluster::Frame> frames{fa, fb};
  ScaleNormalization scale = ScaleNormalization::fit(frames, {true, false});
  DisplacementResult strict = evaluate_displacement(fa, fb, scale, 0.25);
  // With a high threshold every kept cell is >= the threshold.
  for (std::size_t i = 0; i < strict.a_to_b.rows(); ++i)
    for (std::size_t j = 0; j < strict.a_to_b.cols(); ++j) {
      double v = strict.a_to_b.at(i, j);
      EXPECT_TRUE(v == 0.0 || v >= 0.25);
    }
}

TEST(DisplacementEvaluator, GridAndKdTreeEnginesAreByteIdentical) {
  // The production sweep (cluster short-circuit, then the box-pruned tree)
  // must reproduce the reference kd-tree classification cell for cell,
  // bitwise: the tracker's byte-identical-labels guarantee rests on it.
  MiniTraceSpec a;
  a.label = "A";
  a.tasks = 16;
  a.noise = 0.05;
  a.phases = {MiniPhase{40e6, 2.0, {"anchor", "x.c", 99}},
              MiniPhase{8e6, 1.0, {"p1", "x.c", 1}}};
  MiniTraceSpec b;
  b.label = "B";
  b.tasks = 16;
  b.seed = 3;
  b.phases = {MiniPhase{40e6, 2.0, {"anchor", "x.c", 99}},
              MiniPhase{6.2e6, 1.0, {"p1", "x.c", 1}},
              MiniPhase{10.5e6, 1.0, {"p1", "x.c", 2}}};
  cluster::Frame fa = frame_of(a), fb = frame_of(b);
  std::vector<cluster::Frame> frames{fa, fb};
  ScaleNormalization scale = ScaleNormalization::fit(frames, {true, false});

  FrameCloud cloud_a(fa, scale), cloud_b(fb, scale);
  DisplacementResult reference =
      reference_displacement(fa, cloud_a, fb, cloud_b, 0.05);
  DisplacementResult production =
      evaluate_displacement(fa, cloud_a, fb, cloud_b, 0.05);
  EXPECT_TRUE(reference.a_to_b == production.a_to_b);
  EXPECT_TRUE(reference.b_to_a == production.b_to_a);
}

TEST(DisplacementEvaluator, ClusterShortCircuitMatchesKdTreeOnDistantFrames) {
  // CGPOP's adjacent frames are nearly disjoint in the normalised space —
  // the regime where the cluster-level short-circuit fires for most
  // source clusters. Its verdicts must reproduce the reference kd-tree
  // classification bitwise on every pair.
  std::vector<cluster::Frame> frames = sim::study_cgpop().frames();
  ScaleNormalization scale = ScaleNormalization::fit(
      frames, tracking_log_scale(TrackingParams{}, frames[0]));
  std::vector<std::unique_ptr<FrameCloud>> clouds;
  for (const cluster::Frame& f : frames)
    clouds.push_back(std::make_unique<FrameCloud>(f, scale));
  for (std::size_t p = 0; p + 1 < frames.size(); ++p) {
    DisplacementResult reference = reference_displacement(
        frames[p], *clouds[p], frames[p + 1], *clouds[p + 1]);
    DisplacementResult production = evaluate_displacement(
        frames[p], *clouds[p], frames[p + 1], *clouds[p + 1]);
    EXPECT_TRUE(reference.a_to_b == production.a_to_b) << "pair " << p;
    EXPECT_TRUE(reference.b_to_a == production.b_to_a) << "pair " << p;
  }
}

// --- SPMD ---------------------------------------------------------------

TEST(SpmdEvaluator, DistinctPhasesAreNotSimultaneous) {
  MiniTraceSpec spec;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  cluster::Frame frame = frame_of(spec);
  FrameAlignment alignment(frame);
  CorrelationMatrix spmd = evaluate_spmd(frame, alignment, 0.05);
  EXPECT_DOUBLE_EQ(spmd.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(spmd.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(spmd.at(0, 0), 0.0);  // diagonal zero
}

TEST(SpmdEvaluator, SplitHalvesAreFullySimultaneous) {
  MiniTraceSpec spec;
  spec.tasks = 8;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  // Split p1 by IPC across tasks: two clusters, same alignment column.
  spec.phases[0].split_fraction = 0.5;
  spec.phases[0].split_ipc_factor = 0.55;
  cluster::Frame frame = frame_of(spec);
  ASSERT_EQ(frame.object_count(), 3u);
  FrameAlignment alignment(frame);
  CorrelationMatrix spmd = evaluate_spmd(frame, alignment, 0.05);
  // Exactly one pair is simultaneous (the two halves of p1).
  int strong_pairs = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i + 1; j < 3; ++j)
      if (spmd.at(i, j) >= 0.9) ++strong_pairs;
  EXPECT_EQ(strong_pairs, 1);
}

// --- Call stack ---------------------------------------------------------

TEST(CallstackEvaluator, SharedLocationLinksObjects) {
  MiniTraceSpec a;
  a.label = "A";
  a.phases = {MiniPhase{8e6, 1.0, {"same", "x.c", 42}},
              MiniPhase{1e6, 2.0, {"other", "x.c", 99}}};
  MiniTraceSpec b = a;
  b.label = "B";
  cluster::Frame fa = frame_of(a), fb = frame_of(b);
  CorrelationMatrix cs = evaluate_callstack(fa, fb, 0.05);
  // Phase order by duration: p1 is object 0 in both frames.
  EXPECT_DOUBLE_EQ(cs.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cs.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(cs.at(1, 1), 1.0);
}

TEST(CallstackEvaluator, TwoPhasesSharingOneLineBothMatch) {
  MiniTraceSpec a;
  a.label = "A";
  a.phases = {MiniPhase{8e6, 1.0, {"f", "x.c", 7}},
              MiniPhase{1e6, 2.0, {"f", "x.c", 7}}};
  MiniTraceSpec b = a;
  b.label = "B";
  cluster::Frame fa = frame_of(a), fb = frame_of(b);
  CorrelationMatrix cs = evaluate_callstack(fa, fb, 0.05);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_DOUBLE_EQ(cs.at(i, j), 1.0);
}

// --- Sequence -----------------------------------------------------------

TEST(SequenceEvaluator, PivotsResolveUnknownCorrespondences) {
  // Three phases; pretend only the first is pivoted, the other two must be
  // inferred from their positions between the pivots.
  MiniTraceSpec a;
  a.label = "A";
  a.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
              MiniPhase{3e6, 1.5, {"p2", "x.c", 2}},
              MiniPhase{1e6, 0.5, {"p3", "x.c", 3}}};
  MiniTraceSpec b = a;
  b.label = "B";
  cluster::Frame fa = frame_of(a), fb = frame_of(b);
  ASSERT_EQ(fa.object_count(), 3u);
  FrameAlignment align_a(fa), align_b(fb);

  RelationSet pivots;
  pivots.relations.push_back(Relation{{0}, {0}});
  CorrelationMatrix seq =
      evaluate_sequence(fa, align_a, fb, align_b, pivots, 0.05);
  // Identical structures: objects align position by position.
  EXPECT_GE(seq.at(1, 1), 0.9);
  EXPECT_GE(seq.at(2, 2), 0.9);
  EXPECT_DOUBLE_EQ(seq.at(1, 2), 0.0);
}

TEST(SequenceEvaluator, ContradictingPivotsScoreNothing) {
  MiniTraceSpec a;
  a.label = "A";
  a.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
              MiniPhase{3e6, 1.5, {"p2", "x.c", 2}}};
  MiniTraceSpec b = a;
  b.label = "B";
  cluster::Frame fa = frame_of(a), fb = frame_of(b);
  FrameAlignment align_a(fa), align_b(fb);
  // Deliberately cross the pivots: A0 = B1, A1 = B0.
  RelationSet pivots;
  pivots.relations.push_back(Relation{{0}, {1}});
  pivots.relations.push_back(Relation{{1}, {0}});
  CorrelationMatrix seq =
      evaluate_sequence(fa, align_a, fb, align_b, pivots, 0.05);
  // The aligner must honour the (crossed) pivots, not the natural order.
  EXPECT_DOUBLE_EQ(seq.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(seq.at(1, 1), 0.0);
}

}  // namespace
}  // namespace perftrack::tracking
