// Determinism of parallel tracking: any thread count must produce
// results identical to the serial run, because outputs land in pre-sized
// slots and every stage's work is independent per frame / per pair.

#include <gtest/gtest.h>

#include <functional>

#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "sim/studies.hpp"
#include "testing/displacement_reference.hpp"
#include "testing/test_traces.hpp"
#include "tracking/evaluator_displacement.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/tracker.hpp"

namespace perftrack::tracking {
namespace {

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

void expect_identical(const TrackingResult& serial,
                      const TrackingResult& parallel,
                      const std::string& what) {
  EXPECT_EQ(describe_tracking(serial), describe_tracking(parallel)) << what;
  EXPECT_EQ(serial.regions.size(), parallel.regions.size()) << what;
  EXPECT_EQ(serial.complete_count, parallel.complete_count) << what;
  EXPECT_DOUBLE_EQ(serial.coverage, parallel.coverage) << what;
  EXPECT_EQ(serial.renaming, parallel.renaming) << what;
  ASSERT_EQ(serial.pairs.size(), parallel.pairs.size()) << what;
  for (std::size_t p = 0; p < serial.pairs.size(); ++p) {
    EXPECT_EQ(serial.pairs[p].relations.size(),
              parallel.pairs[p].relations.size())
        << what << " pair " << p;
  }
}

TEST(ParallelTrackingTest, StudiesMatchSerialForAnyThreadCount) {
  for (const sim::Study& study :
       {sim::study_nas_bt(), sim::study_gromacs_scaling(),
        sim::study_hydroc(4)}) {
    TrackingParams serial_params;
    serial_params.threads = 1;
    TrackingResult serial = track_frames(study.frames(), serial_params);
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      TrackingParams params;
      params.threads = threads;
      TrackingResult parallel = track_frames(study.frames(), params);
      expect_identical(serial, parallel,
                       study.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDisplacementTest, PooledClassificationMatchesSerialBitwise) {
  // The chunked sweep folds per-chunk integer counts in chunk order, so
  // any pool size must reproduce the reference kd-tree classification bit
  // for bit, on every adjacent pair of a real study.
  std::vector<cluster::Frame> frames = sim::study_nas_bt().frames();
  ScaleNormalization scale = ScaleNormalization::fit(
      frames, tracking_log_scale(TrackingParams{}, frames[0]));
  std::vector<std::unique_ptr<FrameCloud>> clouds;
  for (const cluster::Frame& f : frames)
    clouds.push_back(std::make_unique<FrameCloud>(f, scale));
  for (std::size_t p = 0; p + 1 < frames.size(); ++p) {
    DisplacementResult reference = testing::reference_displacement(
        frames[p], *clouds[p], frames[p + 1], *clouds[p + 1], 0.05);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      ThreadPool pool(threads);
      DisplacementResult pooled =
          evaluate_displacement(frames[p], *clouds[p], frames[p + 1],
                                *clouds[p + 1], 0.05, &pool);
      EXPECT_TRUE(reference.a_to_b == pooled.a_to_b)
          << "pair " << p << " threads " << threads;
      EXPECT_TRUE(reference.b_to_a == pooled.b_to_a)
          << "pair " << p << " threads " << threads;
    }
  }
}

TEST(ParallelDisplacementTest, SharedInteriorCloudBuildsItsIndexOnce) {
  // An interior cloud is the target of one direction in each of its two
  // adjacent pairs, and a retrack runs the pairs concurrently, so both can
  // ask for its lazily built index at once. Exactly one may build it, and
  // the matrices must not depend on which one did.
  // CGPOP's second frame is the target of rows in both of its pairs.
  std::vector<cluster::Frame> frames = sim::study_cgpop().frames();
  ScaleNormalization scale = ScaleNormalization::fit(
      frames, tracking_log_scale(TrackingParams{}, frames[0]));
  using Clouds = std::vector<std::unique_ptr<FrameCloud>>;
  auto fresh_clouds = [&] {
    Clouds clouds;
    for (std::size_t f = 0; f < 3; ++f)
      clouds.push_back(std::make_unique<FrameCloud>(frames[f], scale));
    return clouds;
  };
  auto pair = [&](const Clouds& clouds, std::size_t p, ThreadPool* pool) {
    return evaluate_displacement(frames[p], *clouds[p], frames[p + 1],
                                 *clouds[p + 1], 0.05, pool);
  };
  auto builds = [](const std::function<void()>& run) {
    obs::reset();
    run();
    const obs::RunReport report = obs::collect();
    auto it = report.counters.find("displacement_trees_built");
    return it == report.counters.end() ? 0.0 : it->second;
  };
  obs::set_enabled(true);

  // Each pair alone builds the interior cloud's index; the two together,
  // run serially, share it.
  const double first_alone = builds([&] { pair(fresh_clouds(), 0, nullptr); });
  const double second_alone =
      builds([&] { pair(fresh_clouds(), 1, nullptr); });
  std::vector<DisplacementResult> serial(2);
  const double together = builds([&] {
    Clouds clouds = fresh_clouds();
    serial[0] = pair(clouds, 0, nullptr);
    serial[1] = pair(clouds, 1, nullptr);
  });
  ASSERT_EQ(together, first_alone + second_alone - 1.0)
      << "the interior cloud is not queried by both pairs";

  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    std::vector<DisplacementResult> concurrent(2);
    const double built = builds([&] {
      Clouds clouds = fresh_clouds();
      pool.parallel_for(0, 2, [&](std::size_t p) {
        concurrent[p] = pair(clouds, p, &pool);
      });
    });
    EXPECT_EQ(built, together) << "round " << round;
    for (std::size_t p = 0; p < 2; ++p) {
      EXPECT_TRUE(serial[p].a_to_b == concurrent[p].a_to_b)
          << "round " << round << " pair " << p;
      EXPECT_TRUE(serial[p].b_to_a == concurrent[p].b_to_a)
          << "round " << round << " pair " << p;
    }
  }
  obs::set_enabled(false);
  obs::reset();
}

std::shared_ptr<const trace::Trace> experiment(const std::string& label,
                                               std::uint64_t seed) {
  MiniTraceSpec spec;
  spec.label = label;
  spec.seed = seed;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  return make_mini_trace(spec);
}

TrackingResult run_session(std::size_t threads) {
  SessionConfig config;
  config.clustering.dbscan.eps = 0.05;
  config.clustering.dbscan.min_pts = 3;
  config.tracking.threads = threads;
  TrackingSession session(config);
  for (int i = 0; i < 6; ++i)
    session.append_experiment(
        experiment(std::string(1, static_cast<char>('A' + i)),
                   static_cast<std::uint64_t>(i + 1)));
  return session.retrack();
}

TEST(ParallelTrackingTest, PipelineClusteringMatchesSerial) {
  TrackingResult serial = run_session(1);
  TrackingResult parallel = run_session(4);
  ASSERT_EQ(serial.frames.size(), parallel.frames.size());
  for (std::size_t f = 0; f < serial.frames.size(); ++f) {
    EXPECT_EQ(serial.frames[f].label(), parallel.frames[f].label());
    EXPECT_EQ(serial.frames[f].labels(), parallel.frames[f].labels());
  }
  expect_identical(serial, parallel, "session threads=4");
}

TEST(ParallelTrackingTest, SessionOverLargeCloudsMatchesSerial) {
  // CGPOP's frames each cluster more than 4,096 bursts, so their trees
  // build in parallel, and its interior frames' trees are wanted by both
  // adjacent pairs at once: 4 threads must give the 1-thread bytes.
  const sim::Study study = sim::study_cgpop();
  auto run = [&](std::size_t threads) {
    SessionConfig config;
    config.clustering = study.clustering;
    config.tracking.threads = threads;
    TrackingSession session(config);
    for (const auto& trace : study.traces) session.append_experiment(trace);
    return session.retrack();
  };
  const TrackingResult serial = run(1);
  ASSERT_GE(serial.frames.size(), 3u);
  for (const cluster::Frame& frame : serial.frames) {
    std::size_t clustered = 0;
    for (std::size_t o = 0; o < frame.object_count(); ++o)
      clustered += frame.object(o).rows.size();
    EXPECT_GT(clustered, 4096u) << frame.label();
  }
  for (int round = 0; round < 3; ++round) {
    const TrackingResult parallel = run(4);
    EXPECT_EQ(describe_tracking(serial), describe_tracking(parallel))
        << "round " << round;
    EXPECT_EQ(trends_csv(serial), trends_csv(parallel)) << "round " << round;
  }
}

TEST(ParallelTrackingTest, ThreadCountZeroMeansAuto) {
  TrackingResult serial = run_session(1);
  TrackingResult any = run_session(0);  // hardware concurrency
  expect_identical(serial, any, "session threads=0");
}

}  // namespace
}  // namespace perftrack::tracking
