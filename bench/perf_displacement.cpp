// perf_displacement — the displacement evaluator's production sweep
// against its reference classification.
//
// The cross-frame nearest-neighbour classification is the top tracking
// stage. This harness times it over every adjacent pair of the ten Table 2
// case studies (the perf_session workload) two ways: the reference (every
// row classified by KdTree::nearest, no cluster short-circuit) and the
// production sweep (short-circuit, then the lazily built box-pruned tree)
// at 1 and 4 threads. The part CI gates on proves them interchangeable:
// every correlation matrix must match the reference cell for cell,
// bitwise, and the full track_frames output (links, relations, regions,
// renaming) must be byte-identical at 1 and 4 threads.
//
// Gauges exported to BENCH_perf_opt.json:
//   verdict_displacement_identity      1 iff every equivalence check held
//   advisory_displacement_speedup      reference ms / production ms (serial)
//   advisory_displacement_speedup_ge10 the >= 10x bar (warn-only in CI)
//   displacement_{reference,production,production_mt}_ms raw sweep times
//   tracking_{1t,4t}_ms                track_frames over the ten studies

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/studies.hpp"
#include "testing/displacement_reference.hpp"
#include "tracking/evaluator_displacement.hpp"
#include "tracking/report.hpp"
#include "tracking/tracker.hpp"

using namespace perftrack;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct StudyFrames {
  std::string name;
  std::vector<cluster::Frame> frames;
  tracking::ScaleNormalization scale;
};

struct SweepOutcome {
  double ms = 0.0;
  std::vector<tracking::DisplacementResult> results;
};

/// Classify every adjacent pair of every study with `classify` on fresh
/// clouds. The clock covers the classifications only, which includes the
/// reference's kd-trees and the production sweep's lazy index builds.
template <typename Classify>
SweepOutcome sweep(const std::vector<StudyFrames>& studies,
                   Classify classify) {
  SweepOutcome out;
  for (const StudyFrames& study : studies) {
    std::vector<std::unique_ptr<tracking::FrameCloud>> clouds;
    for (const cluster::Frame& f : study.frames)
      clouds.push_back(std::make_unique<tracking::FrameCloud>(f, study.scale));
    const Clock::time_point start = Clock::now();
    for (std::size_t p = 0; p + 1 < study.frames.size(); ++p)
      out.results.push_back(classify(study.frames[p], *clouds[p],
                                     study.frames[p + 1], *clouds[p + 1]));
    out.ms += ms_since(start);
  }
  return out;
}

bool same_results(const std::vector<tracking::DisplacementResult>& a,
                  const std::vector<tracking::DisplacementResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i].a_to_b == b[i].a_to_b) || !(a[i].b_to_a == b[i].b_to_a))
      return false;
  return true;
}

/// Everything the tracked output exposes, for bitwise comparison.
struct ResultDigest {
  std::string description;
  std::string trends;
  std::vector<std::vector<std::int32_t>> renaming;

  explicit ResultDigest(const tracking::TrackingResult& result)
      : description(tracking::describe_tracking(result)),
        trends(tracking::trends_csv(result)),
        renaming(result.renaming) {}

  bool operator==(const ResultDigest&) const = default;
};

}  // namespace

int main() {
  bench::enable_telemetry();
  bench::print_title("perf_opt",
                     "displacement sweep: reference kd-tree vs production "
                     "vs production + threads");
  bench::print_paper(
      "not in the paper — engineering comparison of the displacement "
      "evaluator's production sweep against its reference over the ten "
      "case studies (byte-identical classifications required)");

  std::vector<StudyFrames> studies;
  for (const sim::Study& study : sim::all_studies()) {
    StudyFrames s;
    s.name = study.name;
    s.frames = study.frames();
    s.scale = tracking::ScaleNormalization::fit(
        s.frames,
        tracking::tracking_log_scale(tracking::TrackingParams{}, s.frames[0]));
    studies.push_back(std::move(s));
  }

  // ---- Leg A: the classification sweep, reference vs production. -------
  bench::print_section("evaluator sweep over all adjacent pairs");
  ThreadPool pool(4);
  auto production_on = [](ThreadPool* pool) {
    return [pool](const cluster::Frame& fa, const tracking::FrameCloud& ca,
                  const cluster::Frame& fb, const tracking::FrameCloud& cb) {
      return tracking::evaluate_displacement(fa, ca, fb, cb, 0.05, pool);
    };
  };
  SweepOutcome reference, production, production_mt;
  {
    PT_SPAN("displacement_reference_total");
    reference = sweep(studies, [](const cluster::Frame& fa,
                                  const tracking::FrameCloud& ca,
                                  const cluster::Frame& fb,
                                  const tracking::FrameCloud& cb) {
      return testing::reference_displacement(fa, ca, fb, cb);
    });
  }
  {
    PT_SPAN("displacement_production_total");
    production = sweep(studies, production_on(nullptr));
  }
  {
    PT_SPAN("displacement_production_mt_total");
    production_mt = sweep(studies, production_on(&pool));
  }

  const bool sweeps_identical =
      same_results(reference.results, production.results) &&
      same_results(reference.results, production_mt.results);
  const double speedup = reference.ms / production.ms;

  std::printf("pairs classified     : %zu\n", reference.results.size());
  std::printf("reference (kd-tree)  : %10.1f ms\n", reference.ms);
  std::printf("production           : %10.1f ms\n", production.ms);
  std::printf("production + 4 thr.  : %10.1f ms\n", production_mt.ms);
  std::printf("serial speedup       : %10.1fx (bar: >= 10x)\n", speedup);
  std::printf("matrices identical   : %s\n\n",
              sweeps_identical ? "yes" : "NO — EQUIVALENCE BROKEN");

  // ---- Leg B: full tracking identity, 1 vs 4 threads. -------------------
  bench::print_section(
      "track_frames identity (links, relations, regions, renaming)");
  Table table({"Study", "Frames", "1t ms", "4t ms", "Identical"});
  bool tracking_identical = true;
  double serial_track_ms = 0.0, parallel_track_ms = 0.0;
  for (const StudyFrames& study : studies) {
    tracking::TrackingParams params;
    params.threads = 1;
    Clock::time_point start = Clock::now();
    ResultDigest serial_digest(tracking::track_frames(study.frames, params));
    const double serial_ms = ms_since(start);

    params.threads = 4;
    start = Clock::now();
    ResultDigest parallel_digest(tracking::track_frames(study.frames, params));
    const double parallel_ms = ms_since(start);

    const bool same = serial_digest == parallel_digest;
    tracking_identical = tracking_identical && same;
    serial_track_ms += serial_ms;
    parallel_track_ms += parallel_ms;
    table.begin_row();
    table.cell(study.name);
    table.cell(study.frames.size());
    table.cell(serial_ms, 1);
    table.cell(parallel_ms, 1);
    table.cell(std::string(same ? "yes" : "NO"));
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("tracking aggregate: 1 thread %.0f ms, 4 threads %.0f ms\n",
              serial_track_ms, parallel_track_ms);
  std::printf("tracking byte-identical at 1 and 4 threads: %s\n\n",
              tracking_identical ? "yes" : "NO — EQUIVALENCE BROKEN");

  const bool identity = sweeps_identical && tracking_identical;
  PT_GAUGE("verdict_displacement_identity", identity ? 1.0 : 0.0);
  PT_GAUGE("advisory_displacement_speedup", speedup);
  PT_GAUGE("advisory_displacement_speedup_ge10", speedup >= 10.0 ? 1.0 : 0.0);
  PT_GAUGE("displacement_reference_ms", reference.ms);
  PT_GAUGE("displacement_production_ms", production.ms);
  PT_GAUGE("displacement_production_mt_ms", production_mt.ms);
  PT_GAUGE("tracking_1t_ms", serial_track_ms);
  PT_GAUGE("tracking_4t_ms", parallel_track_ms);
  bench::write_telemetry("BENCH_perf_opt.json", "perf_opt");

  const bool ok = identity && speedup >= 10.0;
  std::printf("\nperf_displacement: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
