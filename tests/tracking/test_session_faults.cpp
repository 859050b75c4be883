// Degraded-mode session tests: failpoint-poisoned experiments become gaps
// in lenient mode, the tracker bridges them, and the surviving sequence
// matches a clean run over the same surviving experiments.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "testing/test_traces.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"

namespace perftrack::tracking {
namespace {

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

std::shared_ptr<const trace::Trace> experiment(const std::string& label,
                                               std::uint64_t seed) {
  MiniTraceSpec spec;
  spec.label = label;
  spec.seed = seed;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  return make_mini_trace(spec);
}

SessionConfig test_config(bool lenient = false) {
  SessionConfig config;
  config.clustering.dbscan.eps = 0.05;
  config.clustering.dbscan.min_pts = 3;
  config.resilience.lenient = lenient;
  return config;
}

class PipelineFaultTest : public ::testing::Test {
protected:
  void SetUp() override { failpoint::clear(); }
  void TearDown() override { failpoint::clear(); }
};

TEST_F(PipelineFaultTest, PoisonedExperimentsBecomeGaps) {
  // A 10-frame sequence with experiments 3 and 7 (1-based) poisoned: the
  // lenient run must complete with 8 frames and 2 reported gaps.
  TrackingSession session(test_config(/*lenient=*/true));
  for (int i = 0; i < 10; ++i)
    session.append_experiment(
        experiment("E" + std::to_string(i), static_cast<std::uint64_t>(i + 1)));

  failpoint::activate("cluster_experiment", "@3,7");
  TrackingResult result = session.retrack();

  EXPECT_EQ(result.frames.size(), 8u);
  EXPECT_EQ(result.sequence_length(), 10u);
  EXPECT_TRUE(result.degraded());
  ASSERT_EQ(result.gaps.size(), 2u);
  EXPECT_EQ(result.gaps[0].slot, 2u);
  EXPECT_EQ(result.gaps[0].label, "E2");
  EXPECT_EQ(result.gaps[1].slot, 6u);
  EXPECT_EQ(result.gaps[1].label, "E6");
  EXPECT_NE(result.gaps[0].reason.find("injected fault"), std::string::npos);

  // The gap is bridged: the surviving neighbours are adjacent frames.
  EXPECT_EQ(result.frames[1].label(), "E1");
  EXPECT_EQ(result.frames[2].label(), "E3");
  EXPECT_EQ(result.pairs.size(), result.frames.size() - 1);

  // Effective coverage discounts by the surviving fraction.
  EXPECT_NEAR(result.effective_coverage(), result.coverage * 0.8, 1e-12);

  // The report renders the degradation.
  std::string report = describe_tracking(result);
  EXPECT_NE(report.find("degraded sequence: 8 of 10"), std::string::npos);
  EXPECT_NE(report.find("gap at slot 3: E2"), std::string::npos);
  EXPECT_NE(report.find("gap at slot 7: E6"), std::string::npos);
}

TEST_F(PipelineFaultTest, SurvivingFramesMatchNoFaultRun) {
  // Tracked regions over the surviving frames must match a clean run fed
  // only the surviving experiments.
  std::vector<std::shared_ptr<const trace::Trace>> all;
  for (int i = 0; i < 10; ++i)
    all.push_back(
        experiment("E" + std::to_string(i), static_cast<std::uint64_t>(i + 1)));

  TrackingSession faulty(test_config(/*lenient=*/true));
  for (const auto& t : all) faulty.append_experiment(t);
  failpoint::activate("cluster_experiment", "@3,7");
  TrackingResult degraded = faulty.retrack();
  failpoint::clear();

  TrackingSession clean(test_config());
  for (std::size_t i = 0; i < all.size(); ++i)
    if (i != 2 && i != 6) clean.append_experiment(all[i]);
  TrackingResult expected = clean.retrack();

  ASSERT_EQ(degraded.frames.size(), expected.frames.size());
  for (std::size_t f = 0; f < expected.frames.size(); ++f) {
    EXPECT_EQ(degraded.frames[f].label(), expected.frames[f].label());
    EXPECT_EQ(degraded.renaming[f], expected.renaming[f]);
  }
  EXPECT_EQ(degraded.complete_count, expected.complete_count);
  EXPECT_DOUBLE_EQ(degraded.coverage, expected.coverage);
  ASSERT_EQ(degraded.regions.size(), expected.regions.size());
  for (std::size_t r = 0; r < expected.regions.size(); ++r)
    EXPECT_EQ(degraded.regions[r].members, expected.regions[r].members);
}

TEST_F(PipelineFaultTest, StrictModePropagatesInjectedFault) {
  TrackingSession session(test_config());
  for (int i = 0; i < 4; ++i)
    session.append_experiment(
        experiment("E" + std::to_string(i), static_cast<std::uint64_t>(i + 1)));
  failpoint::activate("cluster_experiment", "@2");
  EXPECT_THROW(session.retrack(), InjectedFault);
}

TEST_F(PipelineFaultTest, GapBudgetExhaustionThrows) {
  SessionConfig config = test_config(/*lenient=*/true);
  config.resilience.max_gap_fraction = 0.5;
  TrackingSession session(config);
  for (int i = 0; i < 4; ++i)
    session.append_experiment(
        experiment("E" + std::to_string(i), static_cast<std::uint64_t>(i + 1)));
  failpoint::activate("cluster_experiment", "@1,2,3");
  try {
    session.retrack();
    FAIL() << "expected gap budget exhaustion";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("gap budget"),
              std::string::npos);
  }
}

TEST_F(PipelineFaultTest, PreDeclaredGapsCountAndReport) {
  // append_gap slots (e.g. unreadable files) behave like clustering
  // failures.
  TrackingSession session(test_config(/*lenient=*/true));
  session.append_experiment(experiment("A", 1));
  session.append_gap("missing.ptt", "cannot open for reading");
  session.append_experiment(experiment("B", 2));
  session.append_experiment(experiment("C", 3));

  EXPECT_EQ(session.experiment_count(), 4u);
  EXPECT_EQ(session.gap_count(), 1u);
  TrackingResult result = session.retrack();
  EXPECT_EQ(result.frames.size(), 3u);
  ASSERT_EQ(result.gaps.size(), 1u);
  EXPECT_EQ(result.gaps[0].slot, 1u);
  EXPECT_EQ(result.gaps[0].label, "missing.ptt");
  EXPECT_EQ(result.gaps[0].reason, "cannot open for reading");
}

TEST_F(PipelineFaultTest, StrictModeRejectsPreDeclaredGaps) {
  // Without lenient resilience a pre-declared gap must not silently shrink
  // the sequence.
  TrackingSession session(test_config());
  session.append_experiment(experiment("A", 1));
  session.append_gap("missing.ptt", "cannot open for reading");
  session.append_experiment(experiment("B", 2));
  EXPECT_THROW(session.retrack(), Error);
}

}  // namespace
}  // namespace perftrack::tracking
