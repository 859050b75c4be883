// table2-batch: what `perftrack track --csv` does for each study, in
// process: load_trace on each .ptt, a fresh TrackingSession with default
// threads, append_experiment for each trace, retrack(), then
// describe_tracking and trends_csv. One op is one study; studies run one
// at a time in Table 2 order, in whole passes over the ten.

#include <filesystem>
#include <memory>
#include <optional>

#include "bench/daemon.hpp"
#include "bench/quantile.hpp"
#include "common/stats.hpp"
#include "bench/workloads.hpp"
#include "obs/telemetry.hpp"
#include "trace/trace_io.hpp"
#include "tracking/report.hpp"

namespace perfbench {

namespace pt = perftrack;

namespace {

struct BatchPhase {
  Recorder recorder;
  double wall_ns = 0;
  std::uint64_t experiments = 0;
  std::vector<double> pass_rates;  ///< experiments per second of each pass
  std::vector<std::vector<double>> by_study;  ///< op times (ns) per study
  std::uint64_t failed = 0;
  BatchPhase(bool keep_spans, std::size_t studies)
      : recorder(keep_spans), by_study(studies) {}
};

// Analyse one study as `perftrack track` would; a study whose outputs
// differ from the reference is a failed op.
void analyse(std::size_t s, const CorpusStudy& study,
             const Reference& reference, BatchPhase& phase) {
  Recorder& rec = phase.recorder;
  std::string regions, trends;
  {
    rec.begin_op();
    Span op(rec, "study");
    std::vector<std::shared_ptr<const pt::trace::Trace>> traces;
    for (const std::string& path : study.paths) {
      Span read(rec, "trace.read");
      traces.push_back(
          std::make_shared<const pt::trace::Trace>(pt::trace::load_trace(path)));
    }
    std::optional<pt::tracking::TrackingSession> session;
    {
      Span append(rec, "tracking.append");
      session.emplace(session_config(study, 0));
      for (auto& trace : traces) session->append_experiment(std::move(trace));
    }
    std::optional<pt::tracking::TrackingResult> result;
    {
      Span retrack(rec, "tracking.retrack");
      result.emplace(session->retrack());
    }
    {
      Span render(rec, "tracking.render");
      regions = pt::tracking::describe_tracking(*result);
      trends = pt::tracking::trends_csv(*result);
    }
    phase.by_study[s].push_back(static_cast<double>(op.finish()));
  }
  if (regions != reference.regions || trends != reference.trends)
    ++phase.failed;
}

// Whole passes until `seconds` have passed and the study percentiles have
// enough samples.
void measure(const Corpus& corpus, const std::vector<Reference>& reference,
             double seconds, BatchPhase& phase) {
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t studies = 0;
  do {
    const std::int64_t pass_start = now_ns();
    std::uint64_t experiments = 0;
    for (std::size_t s = 0; s < corpus.studies.size(); ++s) {
      analyse(s, corpus.studies[s], reference[s], phase);
      experiments += corpus.studies[s].paths.size();
      ++studies;
    }
    phase.experiments += experiments;
    phase.pass_rates.push_back(static_cast<double>(experiments) * 1e9 /
                               static_cast<double>(now_ns() - pass_start));
  } while (now_ns() < deadline || !tail_supported(studies, 0.95));
  phase.wall_ns = static_cast<double>(now_ns() - start);
}

}  // namespace

Outcome run_table2_batch(const Options& options) {
  Outcome out;
  SetupRuns setup;
  Corpus corpus;
  std::string setup_dir;
  for (int run = 0; run < kSetupRuns; ++run) {
    if (!setup_dir.empty()) std::filesystem::remove_all(setup_dir);
    const std::int64_t start = setup_start(options, setup);
    setup_dir = "setup" + std::to_string(run);
    corpus = make_corpus(options.seed, setup_dir, false);
    setup.total_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    setup.generate_ms.push_back(corpus.generate_ms);
    setup.write_ms.push_back(corpus.write_ms);
  }
  const std::vector<Reference> reference = compute_reference(corpus);
  out.info.push_back("ptt digest " + hex64(corpus_digest(corpus)) +
                     ", reference digest " +
                     hex64(reference_digest(reference)));

  BatchPhase untraced(false, corpus.studies.size());
  measure(corpus, reference, options.trace ? options.seconds / 2 : options.seconds,
          untraced);
  const double ops = static_cast<double>(untraced.recorder.ops());
  out.attempted = untraced.recorder.ops();
  out.failed = untraced.failed;

  const double frames_per_s = pt::percentile(untraced.pass_rates, 50);
  const OpMix mix = op_mix(untraced.by_study);
  setup.report(out.metrics, corpus, false);
  report_end_to_end(out.metrics, frames_per_s, mix.typical_ms,
                    mix.slowest_ms, sample_process(0).peak_rss_mb,
                    out.attempted, out.failed);
  out.metrics.add("batch_frames_per_s", "1/s", frames_per_s);
  out.metrics.add("study_p50_ms", "ms",
                  quantile_of(untraced.recorder, "study", 0.50, 1e-6));
  out.metrics.add("study_p95_ms", "ms",
                  quantile_of(untraced.recorder, "study", 0.95, 1e-6));
  if (!options.trace) {
    std::filesystem::remove_all(setup_dir);
    return out;
  }

  setup.report(out.metrics, corpus, true);
  add_layer(out.metrics, "trace.read_ms",
            per_op_ms(untraced.recorder, "trace.read", ops));
  add_layer(out.metrics, "tracking.retrack_ms",
            per_op_ms(untraced.recorder, "tracking.retrack", ops));
  add_layer(out.metrics, "tracking.render_ms",
            per_op_ms(untraced.recorder, "tracking.render", ops));

  // Traced half: the benchmark's spans plus the program's obs spans.
  BatchPhase traced(true, corpus.studies.size());
  pt::obs::reset();
  pt::obs::set_enabled(true);
  measure(corpus, reference, options.seconds / 2, traced);
  pt::obs::set_enabled(false);
  const ProgramProfile profile = fold(pt::obs::collect());
  pt::obs::reset();
  out.attempted += traced.recorder.ops();
  out.failed += traced.failed;

  const double traced_ops = static_cast<double>(traced.recorder.ops());
  report_program_layers(out.metrics, profile, traced_ops);
  report_tracing(out.metrics, out.info, options, traced.recorder,
                 untraced.wall_ns / ops, traced.wall_ns / traced_ops, profile);
  complete_layer_catalogue(out.metrics);
  std::filesystem::remove_all(setup_dir);
  return out;
}

}  // namespace perfbench
