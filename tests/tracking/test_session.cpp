#include "tracking/session.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "testing/test_traces.hpp"
#include "tracking/report.hpp"

namespace perftrack::tracking {
namespace {

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

std::shared_ptr<const trace::Trace> experiment(const std::string& label,
                                               std::uint64_t seed,
                                               double noise = 0.0) {
  MiniTraceSpec spec;
  spec.label = label;
  spec.seed = seed;
  spec.noise = noise;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  return make_mini_trace(spec);
}

SessionConfig test_config() {
  SessionConfig config;
  config.clustering.dbscan.eps = 0.05;
  config.clustering.dbscan.min_pts = 3;
  return config;
}

/// A cold batch run: one retrack of a fresh session over `traces`.
TrackingResult batch_run(
    std::initializer_list<std::shared_ptr<const trace::Trace>> traces) {
  TrackingSession batch(test_config());
  for (const auto& t : traces) batch.append_experiment(t);
  return batch.retrack();
}

/// Bit-level equivalence of two tracking results: everything a report or a
/// downstream consumer can observe must be identical, including the exact
/// double values (no tolerance).
void expect_same_tracking(const TrackingResult& a, const TrackingResult& b) {
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    EXPECT_EQ(a.frames[f].label(), b.frames[f].label());
    EXPECT_EQ(a.frames[f].object_count(), b.frames[f].object_count());
  }
  EXPECT_TRUE(a.scale == b.scale);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t p = 0; p < a.pairs.size(); ++p)
    EXPECT_EQ(a.pairs[p].relations.size(), b.pairs[p].relations.size());
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    EXPECT_EQ(a.regions[r].members, b.regions[r].members);
    EXPECT_EQ(a.regions[r].complete, b.regions[r].complete);
    EXPECT_EQ(a.regions[r].total_duration, b.regions[r].total_duration);
  }
  EXPECT_EQ(a.renaming, b.renaming);
  EXPECT_EQ(a.complete_count, b.complete_count);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.gaps.size(), b.gaps.size());
  // The rendered artefacts are the end-to-end bit-identity check.
  EXPECT_EQ(describe_tracking(a), describe_tracking(b));
  EXPECT_EQ(trends_csv(a), trends_csv(b));
}

TEST(SessionConfigTest, ValidConfigHasNoProblems) {
  EXPECT_TRUE(test_config().validate().empty());
  EXPECT_NO_THROW(test_config().validate_or_throw());
}

TEST(SessionConfigTest, ReportsAllProblemsAtOnce) {
  SessionConfig config = test_config();
  config.clustering.dbscan.eps = -1.0;
  config.clustering.dbscan.min_pts = 0;
  config.clustering.min_cluster_time_fraction = 2.0;
  config.tracking.outlier_threshold = 3.0;
  config.resilience.max_gap_fraction = -0.25;

  std::vector<std::string> problems = config.validate();
  EXPECT_EQ(problems.size(), 5u);

  try {
    config.validate_or_throw();
    FAIL() << "expected Error";
  } catch (const Error& error) {
    std::string what = error.what();
    // One message listing every problem, not just the first.
    EXPECT_NE(what.find("5 problems"), std::string::npos) << what;
    EXPECT_NE(what.find("eps"), std::string::npos);
    EXPECT_NE(what.find("min_pts"), std::string::npos);
    EXPECT_NE(what.find("max_gap_fraction"), std::string::npos);
  }
}

TEST(SessionConfigTest, SessionConstructorValidates) {
  SessionConfig config = test_config();
  config.clustering.dbscan.eps = 0.0;
  EXPECT_THROW(TrackingSession{config}, Error);
}

TEST(SessionConfigTest, PipelineConfigIsTheOneSurface) {
  SessionConfig config;
  config.clustering.dbscan.eps = 0.123;
  config.tracking.use_spmd = false;
  config.resilience.lenient = true;
  TrackingSession session(config);

  EXPECT_EQ(session.config().clustering.dbscan.eps, 0.123);
  EXPECT_FALSE(session.config().tracking.use_spmd);
  EXPECT_TRUE(session.config().resilience.lenient);
}

TEST(SessionConfigTest, ThreadCountIsBounded) {
  SessionConfig config = test_config();
  config.tracking.threads = ThreadPool::kMaxThreads;
  EXPECT_TRUE(config.validate().empty());
  config.tracking.threads = 0;  // auto
  EXPECT_TRUE(config.validate().empty());

  config.tracking.threads = ThreadPool::kMaxThreads + 1;
  std::vector<std::string> problems = config.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("tracking.threads must be at most 256"),
            std::string::npos)
      << problems[0];
  config.tracking.threads = ~std::size_t{0};
  EXPECT_EQ(config.validate().size(), 1u);
  // Rejected before any pool exists: the constructor validates.
  EXPECT_THROW(TrackingSession{config}, Error);
}

// --- Batch runs: append every experiment, retrack once ------------------

TEST(PipelineTest, DefaultsToPaperAxes) {
  TrackingSession session;
  const cluster::ClusteringParams& clustering = session.config().clustering;
  ASSERT_EQ(clustering.projection.metrics.size(), 2u);
  EXPECT_EQ(clustering.projection.metrics[0], trace::Metric::Instructions);
  EXPECT_EQ(clustering.projection.metrics[1], trace::Metric::Ipc);
}

TEST(PipelineTest, RejectsNullAndTooFewExperiments) {
  TrackingSession session;
  EXPECT_THROW(session.append_experiment(nullptr), PreconditionError);
  session.append_experiment(experiment("A", 1));
  EXPECT_THROW(session.retrack(), PreconditionError);
}

TEST(PipelineTest, EndToEndRun) {
  TrackingSession session(test_config());
  session.append_experiment(experiment("A", 1));
  session.append_experiment(experiment("B", 2));
  session.append_experiment(experiment("C", 3));

  TrackingResult result = session.retrack();
  EXPECT_EQ(result.frames.size(), 3u);
  EXPECT_EQ(result.complete_count, 2u);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  EXPECT_EQ(result.frames[0].label(), "A");
  EXPECT_EQ(result.frames[2].label(), "C");
}

TEST(PipelineTest, TrackingParamsArePassedThrough) {
  SessionConfig config = test_config();
  config.tracking.use_sequence = false;
  config.tracking.use_spmd = false;
  TrackingSession session(config);
  session.append_experiment(experiment("A", 1));
  session.append_experiment(experiment("B", 2));
  EXPECT_FALSE(session.config().tracking.use_sequence);
  TrackingResult result = session.retrack();
  EXPECT_EQ(result.complete_count, 2u);
}

TEST(SessionTest, NeedsTwoSlots) {
  TrackingSession session(test_config());
  EXPECT_THROW(session.append_experiment(nullptr), PreconditionError);
  session.append_experiment(experiment("A", 1));
  EXPECT_THROW(session.retrack(), PreconditionError);
}

TEST(SessionTest, IncrementalAppendsMatchColdBatch) {
  auto a = experiment("A", 1, 0.02);
  auto b = experiment("B", 2, 0.02);
  auto c = experiment("C", 3, 0.02);
  auto d = experiment("D", 4, 0.02);

  TrackingResult cold = batch_run({a, b, c, d});

  TrackingSession session(test_config());
  session.append_experiment(a);
  session.append_experiment(b);
  TrackingResult r2 = session.retrack();
  EXPECT_EQ(r2.frames.size(), 2u);
  session.append_experiment(c);
  session.append_experiment(d);
  TrackingResult r4 = session.retrack();

  expect_same_tracking(r4, cold);
  // Each experiment was clustered exactly once across both retracks.
  EXPECT_EQ(session.stats().frames_clustered, 4u);
  EXPECT_EQ(session.stats().frames_memoized, 2u);
}

TEST(SessionTest, RetrackTwiceReusesFramesAndPairs) {
  TrackingSession session(test_config());
  session.append_experiment(experiment("A", 1));
  session.append_experiment(experiment("B", 2));
  session.append_experiment(experiment("C", 3));
  TrackingResult first = session.retrack();
  const SessionStats after_first = session.stats();
  EXPECT_EQ(after_first.frames_clustered, 3u);
  EXPECT_EQ(after_first.pairs_tracked, 2u);

  TrackingResult second = session.retrack();
  expect_same_tracking(first, second);
  const SessionStats after_second = session.stats();
  EXPECT_EQ(after_second.frames_clustered, 3u) << "no re-clustering";
  EXPECT_EQ(after_second.frames_memoized, 3u);
  EXPECT_EQ(after_second.pairs_tracked, 2u) << "no re-tracking";
  EXPECT_EQ(after_second.pairs_memoized, 2u);
  EXPECT_EQ(after_second.scale_invalidations, 0u);
}

TEST(SessionTest, ScaleStableAppendTracksExactlyOneNewPair) {
  // Identical generator seeds produce identical point clouds, so the
  // appended experiment cannot move the min-max scale: the memoised pairs
  // stay valid and only the one new pair is tracked.
  TrackingSession session(test_config());
  session.append_experiment(experiment("A", 1));
  session.append_experiment(experiment("B", 1));
  session.append_experiment(experiment("C", 1));
  session.retrack();
  EXPECT_EQ(session.stats().pairs_tracked, 2u);

  session.append_experiment(experiment("D", 1));
  TrackingResult result = session.retrack();
  EXPECT_EQ(result.frames.size(), 4u);
  EXPECT_EQ(session.stats().scale_invalidations, 0u);
  EXPECT_EQ(session.stats().pairs_tracked, 3u) << "exactly one new pair";
  EXPECT_EQ(session.stats().pairs_memoized, 2u);
  EXPECT_EQ(session.stats().frames_clustered, 4u);
}

TEST(SessionTest, ScaleShiftInvalidatesPairsButNotFrames) {
  TrackingSession session(test_config());
  session.append_experiment(experiment("A", 1));
  session.append_experiment(experiment("B", 2));
  session.retrack();

  // A much larger phase extends the instruction range: the fitted scale
  // moves, so memoised pair relations are re-tracked — but from memoised
  // frames, with no re-clustering.
  MiniTraceSpec spec;
  spec.label = "C";
  spec.seed = 9;
  spec.phases = {MiniPhase{64e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  auto c = make_mini_trace(spec);
  session.append_experiment(c);
  TrackingResult incremental = session.retrack();
  EXPECT_EQ(session.stats().scale_invalidations, 1u);
  EXPECT_EQ(session.stats().frames_clustered, 3u) << "frames stay memoised";
  EXPECT_EQ(session.stats().pairs_tracked, 1u + 2u)
      << "the old pair re-tracked under the new scale plus the new pair";

  // And the result is still bit-identical to a cold batch run.
  expect_same_tracking(incremental,
                       batch_run({experiment("A", 1), experiment("B", 2), c}));
}

TEST(SessionTest, GapsAreTrackedAcrossAndReported) {
  SessionConfig config = test_config();
  config.resilience.lenient = true;
  TrackingSession session(config);
  session.append_experiment(experiment("A", 1));
  session.append_gap("missing.ptt", "file not found");
  session.append_experiment(experiment("C", 3));
  EXPECT_EQ(session.experiment_count(), 3u);
  EXPECT_EQ(session.gap_count(), 1u);

  TrackingResult result = session.retrack();
  EXPECT_EQ(result.frames.size(), 2u);
  ASSERT_EQ(result.gaps.size(), 1u);
  EXPECT_EQ(result.gaps[0].slot, 1u);
  EXPECT_EQ(result.gaps[0].label, "missing.ptt");
  EXPECT_TRUE(result.degraded());
}

TEST(SessionTest, StrictModeRefusesGaps) {
  TrackingSession session(test_config());
  session.append_experiment(experiment("A", 1));
  session.append_gap("missing.ptt", "file not found");
  try {
    session.retrack();
    FAIL() << "expected Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("enable lenient resilience"),
              std::string::npos);
  }
}

// --- Star-align memo ----------------------------------------------------

/// A trace whose frame clusters into three phases — a different task
/// sequence shape than the two-phase experiment() above.
std::shared_ptr<const trace::Trace> three_phase_experiment(
    const std::string& label, std::uint64_t seed) {
  MiniTraceSpec spec;
  spec.label = label;
  spec.seed = seed;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{4e6, 1.5, {"p3", "x.c", 3}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  return make_mini_trace(spec);
}

TEST(SessionTest, ReappendedExperimentHitsTheAlignmentMemo) {
  auto a = experiment("A", 1);
  auto b = three_phase_experiment("B", 2);

  TrackingSession session(test_config());
  session.append_experiment(a);
  session.append_experiment(b);
  session.retrack();
  const SessionStats before = session.stats();
  EXPECT_GE(before.alignments_computed, 1u);

  // Re-appending A re-clusters it into a frame with the same task
  // sequences: the profile must come from the memo, not a fresh MSA.
  session.append_experiment(a);
  TrackingResult warm = session.retrack();
  const SessionStats after = session.stats();
  EXPECT_EQ(after.alignments_computed, before.alignments_computed);
  EXPECT_EQ(after.alignments_memoized, before.alignments_memoized + 1);

  // And the memoized profile must not change the output.
  expect_same_tracking(warm, batch_run({a, b, a}));
}

TEST(SessionTest, DistinctAppendComputesAFreshAlignment) {
  TrackingSession session(test_config());
  session.append_experiment(experiment("A", 1));
  session.append_experiment(experiment("B", 2));
  session.retrack();
  const SessionStats before = session.stats();

  // A three-phase experiment has different task sequences than anything
  // aligned so far: no fingerprint bucket may serve it.
  session.append_experiment(three_phase_experiment("C", 3));
  session.retrack();
  const SessionStats after = session.stats();
  EXPECT_EQ(after.alignments_computed, before.alignments_computed + 1);
  EXPECT_EQ(after.alignments_memoized, before.alignments_memoized);
}

TEST(SessionTest, AlignmentMemoServesAcrossGapSlots) {
  SessionConfig config = test_config();
  config.resilience.lenient = true;

  auto a = experiment("A", 1);
  TrackingSession session(config);
  session.append_experiment(a);
  session.append_experiment(three_phase_experiment("B", 2));
  session.retrack();
  const SessionStats before = session.stats();

  // A gap slot between the original and the re-append: gaps own no frame
  // and no alignment, and must not disturb the memo probe for live slots.
  session.append_gap("missing.ptt", "file not found");
  session.append_experiment(a);
  TrackingResult result = session.retrack();
  const SessionStats after = session.stats();
  EXPECT_EQ(result.gaps.size(), 1u);
  EXPECT_EQ(after.alignments_computed, before.alignments_computed);
  EXPECT_EQ(after.alignments_memoized, before.alignments_memoized + 1);
}

// --- Prebuilt frames and the process pool -------------------------------

TEST(SessionTest, PrebuiltFramesMatchTraces) {
  // append_frame skips clustering, and with it the cluster_experiment
  // failpoint, but is otherwise the same slot: gaps, reports and the
  // frame-object renaming match a session fed the traces.
  SessionConfig config = test_config();
  config.resilience.lenient = true;
  auto a = experiment("A", 1, 0.02);
  auto b = experiment("B", 2, 0.02);
  auto c = experiment("C", 3, 0.02);

  TrackingSession from_traces(config);
  from_traces.append_experiment(a);
  from_traces.append_gap("missing.ptt", "file not found");
  from_traces.append_experiment(b);
  from_traces.append_experiment(c);
  TrackingResult expected = from_traces.retrack();

  TrackingSession from_frames(config);
  from_frames.append_frame(cluster::build_frame(a, config.clustering));
  from_frames.append_gap("missing.ptt", "file not found");
  from_frames.append_frame(cluster::build_frame(b, config.clustering));
  from_frames.append_frame(cluster::build_frame(c, config.clustering));
  EXPECT_EQ(from_frames.experiment_count(), 4u);
  EXPECT_EQ(from_frames.gap_count(), 1u);

  failpoint::activate("cluster_experiment", "error");
  TrackingResult result = from_frames.retrack();
  failpoint::clear();

  expect_same_tracking(result, expected);
  ASSERT_EQ(result.gaps.size(), 1u);
  EXPECT_EQ(result.gaps[0].slot, 1u);
  EXPECT_EQ(result.gaps[0].label, "missing.ptt");
  EXPECT_EQ(from_frames.stats().frames_clustered, 0u);
}

TEST(SessionTest, ThreadLogsStayBoundedAcrossRetracks) {
  // Every retrack runs on the process-wide pool, so twenty rounds register
  // at most one telemetry log per pool worker. A pool built per retrack
  // would register fresh workers every round.
  SessionConfig config = test_config();
  config.tracking.threads = 4;
  obs::set_enabled(true);
  obs::current_thread_timeline();  // registers this thread's log up front
  const std::size_t before = obs::timelines().size();

  TrackingSession session(config);
  session.append_experiment(experiment("E0", 1));
  for (std::uint64_t round = 1; round <= 20; ++round) {
    session.append_experiment(
        experiment("E" + std::to_string(round), round + 1));
    session.retrack();
  }
  const std::size_t grown = obs::timelines().size() - before;
  obs::set_enabled(false);
  obs::reset();
  EXPECT_LE(grown, 4u);
}

}  // namespace
}  // namespace perftrack::tracking
