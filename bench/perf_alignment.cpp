// perf_alignment — the alignment engine: full DP vs banded NW vs
// parallel star-align, identity-gated.
//
// After the displacement evaluator moved to the grid engine, the per-frame
// multiple sequence alignment became the next fixed cost of every track
// and retrack. This harness proves the rebuilt engine interchangeable on
// the ten Table 2 case studies — the banded Needleman–Wunsch must return
// the same alignment (traceback and tie-breaking included) as the full
// dynamic program, the pooled star-align must be byte-identical to the
// serial one, and the whole track_frames output must not move with the
// thread count — and then
// times the engines at the sequence lengths real traces produce (the
// simulator's ladders are short; production traces run thousands of
// iterations, so a scaled leg reports the regime the band targets).
//
// Gauges exported to BENCH_alignment.json:
//   verdict_alignment_identity      1 iff every equivalence check held
//   advisory_alignment_speedup      full ms / banded ms (long sequences)
//   advisory_alignment_speedup_ge3  the >= 3x bar (warn-only in CI)
//   alignment_{full,banded,parallel}_ms raw star-align sweep times
//   alignment_study_speedup         full/banded on the bare study ladders

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "align/msa.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/studies.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/tracker.hpp"

using namespace perftrack;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool same_msa(const align::MultipleAlignment& x,
              const align::MultipleAlignment& y) {
  return x.rows() == y.rows() && x.consensus() == y.consensus();
}

/// Star-align every frame of every workload with one engine/pool choice.
struct SweepOutcome {
  double ms = 0.0;
  std::vector<align::MultipleAlignment> msas;
};

SweepOutcome sweep(
    const std::vector<std::vector<std::vector<align::Symbol>>>& workloads,
    align::AlignmentEngine engine, ThreadPool* pool) {
  SweepOutcome out;
  out.msas.reserve(workloads.size());
  const Clock::time_point start = Clock::now();
  for (const auto& sequences : workloads)
    out.msas.push_back(align::star_align(sequences, {}, pool, engine));
  out.ms = ms_since(start);
  return out;
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

/// Production-length SPMD ladder: `phases` distinct symbols repeated for
/// `iterations`, with rare per-task drops — the shape real traces feed the
/// evaluator, at lengths where the O(n·m) full DP dominates a retrack.
std::vector<align::Symbol> spmd_like_sequence(std::size_t phases,
                                              std::size_t iterations,
                                              Rng& rng) {
  std::vector<align::Symbol> seq;
  seq.reserve(phases * iterations);
  for (std::size_t it = 0; it < iterations; ++it)
    for (std::size_t p = 0; p < phases; ++p)
      if (!rng.chance(0.02)) seq.push_back(static_cast<align::Symbol>(p));
  return seq;
}

}  // namespace

int main() {
  bench::enable_telemetry();
  bench::print_title("perf_alignment",
                     "alignment engine: full DP vs banded NW vs parallel "
                     "star-align (identity-gated)");
  bench::print_paper(
      "not in the paper — engineering comparison of the pairwise DP "
      "engines and the pooled star alignment over the ten case studies "
      "(byte-identical alignments required)");

  // ---- Leg A: star-align equivalence over every study frame. -----------
  bench::print_section("star_align over every frame of the ten studies");
  std::vector<std::vector<std::vector<align::Symbol>>> study_frames;
  std::size_t frame_count = 0;
  for (const sim::Study& study : sim::all_studies())
    for (const cluster::Frame& frame : study.frames()) {
      study_frames.push_back(frame.task_sequences());
      ++frame_count;
    }

  ThreadPool pool(4);
  SweepOutcome study_full, study_banded, study_parallel;
  {
    PT_SPAN("alignment_study_full");
    study_full = sweep(study_frames, align::AlignmentEngine::kFull, nullptr);
  }
  {
    PT_SPAN("alignment_study_banded");
    study_banded =
        sweep(study_frames, align::AlignmentEngine::kBanded, nullptr);
  }
  {
    PT_SPAN("alignment_study_parallel");
    study_parallel =
        sweep(study_frames, align::AlignmentEngine::kBanded, &pool);
  }

  bool study_identical = true;
  for (std::size_t f = 0; f < study_frames.size(); ++f)
    study_identical = study_identical &&
                      same_msa(study_full.msas[f], study_banded.msas[f]) &&
                      same_msa(study_full.msas[f], study_parallel.msas[f]);
  const double study_speedup = study_full.ms / study_banded.ms;

  std::printf("frames aligned     : %zu\n", frame_count);
  std::printf("full DP            : %10.1f ms\n", study_full.ms);
  std::printf("banded             : %10.1f ms (%.1fx)\n", study_banded.ms,
              study_speedup);
  std::printf("banded + 4 threads : %10.1f ms\n", study_parallel.ms);
  std::printf("alignments identical: %s\n\n",
              study_identical ? "yes" : "NO — EQUIVALENCE BROKEN");

  // ---- Leg B: full tracking identity across threads. -------------------
  // Covers the evaluator_sequence path too: its pivot-scored DP runs inside
  // every track_pair, with the engine the align module picks.
  bench::print_section("track_frames identity (1 vs 4 threads)");
  Table table({"Study", "Frames", "1t ms", "4t ms", "Identical"});
  bool tracking_identical = true;
  double serial_track_ms = 0.0, pooled_track_ms = 0.0;
  for (const sim::Study& study : sim::all_studies()) {
    std::vector<cluster::Frame> frames = study.frames();
    tracking::TrackingParams params;
    params.threads = 1;
    Clock::time_point start = Clock::now();
    ResultDigest serial_digest(tracking::track_frames(frames, params));
    const double serial_ms = ms_since(start);

    params.threads = 4;
    start = Clock::now();
    ResultDigest pooled_digest(tracking::track_frames(frames, params));
    const double pooled_ms = ms_since(start);

    const bool same = serial_digest == pooled_digest;
    tracking_identical = tracking_identical && same;
    serial_track_ms += serial_ms;
    pooled_track_ms += pooled_ms;
    table.begin_row();
    table.cell(study.name);
    table.cell(frames.size());
    table.cell(serial_ms, 1);
    table.cell(pooled_ms, 1);
    table.cell(std::string(same ? "yes" : "NO"));
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("tracking aggregate: 1t %.0f ms, 4t %.0f ms\n", serial_track_ms,
              pooled_track_ms);
  std::printf("tracking byte-identical across threads: %s\n\n",
              tracking_identical ? "yes" : "NO — EQUIVALENCE BROKEN");

  // ---- Leg C: production-length sequences (where the band pays off). ---
  bench::print_section("long SPMD ladders (64 tasks, ~1500 symbols)");
  std::vector<std::vector<std::vector<align::Symbol>>> long_workloads;
  {
    Rng rng(17);
    for (std::size_t w = 0; w < 4; ++w) {
      std::vector<std::vector<align::Symbol>> tasks;
      for (std::size_t t = 0; t < 64; ++t)
        tasks.push_back(spmd_like_sequence(12, 128, rng));
      long_workloads.push_back(std::move(tasks));
    }
  }
  SweepOutcome long_full, long_banded, long_parallel;
  {
    PT_SPAN("alignment_long_full");
    long_full = sweep(long_workloads, align::AlignmentEngine::kFull, nullptr);
  }
  {
    PT_SPAN("alignment_long_banded");
    long_banded =
        sweep(long_workloads, align::AlignmentEngine::kBanded, nullptr);
  }
  {
    PT_SPAN("alignment_long_parallel");
    long_parallel =
        sweep(long_workloads, align::AlignmentEngine::kBanded, &pool);
  }
  bool long_identical = true;
  for (std::size_t w = 0; w < long_workloads.size(); ++w)
    long_identical = long_identical &&
                     same_msa(long_full.msas[w], long_banded.msas[w]) &&
                     same_msa(long_full.msas[w], long_parallel.msas[w]);
  const double long_speedup = long_full.ms / long_banded.ms;

  std::printf("full DP            : %10.1f ms\n", long_full.ms);
  std::printf("banded             : %10.1f ms (%.1fx, bar: >= 3x)\n",
              long_banded.ms, long_speedup);
  std::printf("banded + 4 threads : %10.1f ms\n", long_parallel.ms);
  std::printf("alignments identical: %s\n\n",
              long_identical ? "yes" : "NO — EQUIVALENCE BROKEN");

  // ---- Leg D: the session's star-align memo. ---------------------------
  // Re-appending a mid-sequence configuration (perf_session's Leg A
  // scenario) must hit the memo instead of re-running the MSA.
  bench::print_section("session star-align memo (re-appended experiment)");
  bool memo_ok = true;
  std::uint64_t memo_hits = 0;
  {
    sim::Study evolution = sim::study_gromacs_evolution();
    tracking::SessionConfig config;
    config.clustering = evolution.clustering;
    tracking::TrackingSession session(config);
    for (const auto& t : evolution.traces) session.append_experiment(t);
    session.retrack();
    const std::uint64_t computed_before = session.stats().alignments_computed;

    session.append_experiment(evolution.traces[evolution.traces.size() / 2]);
    ResultDigest warm(session.retrack());
    memo_hits = session.stats().alignments_memoized;
    memo_ok = memo_hits >= 1 &&
              session.stats().alignments_computed == computed_before;

    tracking::SessionConfig cold_config;
    cold_config.clustering = evolution.clustering;
    tracking::TrackingSession batch(cold_config);
    for (const auto& t : evolution.traces) batch.append_experiment(t);
    batch.append_experiment(evolution.traces[evolution.traces.size() / 2]);
    ResultDigest cold(batch.retrack());
    memo_ok = memo_ok && cold == warm;
  }
  std::printf("memoized profiles  : %llu\n",
              static_cast<unsigned long long>(memo_hits));
  std::printf("memo hit, no recompute, identical output: %s\n\n",
              memo_ok ? "yes" : "NO — EQUIVALENCE BROKEN");

  const bool identity =
      study_identical && tracking_identical && long_identical && memo_ok;
  PT_GAUGE("verdict_alignment_identity", identity ? 1.0 : 0.0);
  PT_GAUGE("advisory_alignment_speedup", long_speedup);
  PT_GAUGE("advisory_alignment_speedup_ge3", long_speedup >= 3.0 ? 1.0 : 0.0);
  PT_GAUGE("alignment_full_ms", long_full.ms);
  PT_GAUGE("alignment_banded_ms", long_banded.ms);
  PT_GAUGE("alignment_parallel_ms", long_parallel.ms);
  PT_GAUGE("alignment_study_speedup", study_speedup);
  bench::write_telemetry("BENCH_alignment.json", "perf_alignment");

  // Identity is the gate; the timing bar is advisory (shared CI runners).
  std::printf("\nperf_alignment: %s\n", identity ? "PASS" : "FAIL");
  return identity ? 0 : 1;
}
