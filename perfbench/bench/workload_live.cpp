// live-append: one analyst connection replays every study append by append
// against perftrackd. Per study: open_study with the study's clustering
// parameters, the first append, then one cycle per further append —
// append_experiment (inline trace, seq), regions, trends IPC — and finally
// close_study. A cycle is the analyst's wait from "appended" to "updated
// trends in hand". Whole passes over the ten studies.

#include <filesystem>

#include "bench/quantile.hpp"
#include "common/stats.hpp"
#include "bench/served.hpp"
#include "store/serialize.hpp"

namespace perfbench {

namespace pt = perftrack;

namespace {

struct FinalAnswer {
  std::size_t study;
  std::string regions;  ///< raw response lines of the last cycle
  std::string trends;
};

struct LivePhase {
  Recorder recorder;
  double wall_ns = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t passes = 0;
  std::vector<double> pass_rates;  ///< cycles per second of each pass
  std::vector<std::vector<double>> by_study;  ///< cycle times (ns) per study
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t journal_bytes = 0;  ///< at each close_study, summed
  bool lost = false;                ///< the connection or daemon failed
  std::vector<FinalAnswer> finals;
  LivePhase(bool keep_spans, std::size_t studies)
      : recorder(keep_spans), by_study(studies) {}
};

class Analyst {
public:
  Analyst(pt::serve::NdjsonClient& client, LivePhase& phase)
      : client_(client), phase_(phase) {}

  std::string call(const Request& request, const char* span) {
    ++phase_.requests;
    phase_.request_bytes += request.line.size() + 1;
    std::string line;
    {
      Span timed(phase_.recorder, span);
      line = client_.roundtrip(request.line);
    }
    phase_.response_bytes += line.size() + 1;
    if (!request.ok(line)) ++phase_.failed;
    return line;
  }

  void replay(std::size_t s, const StudyRequests& study,
              const std::string& state_dir) {
    call(study.open, "serve.open_study");
    call(study.appends[0], "serve.append");
    FinalAnswer last{s, "", ""};
    for (std::size_t k = 1; k < study.appends.size(); ++k) {
      phase_.recorder.begin_op();
      Span cycle(phase_.recorder, "cycle");
      call(study.appends[k], "serve.append");
      last.regions = call(study.reads[kRegions], "serve.regions");
      last.trends = call(study.reads[kTrendsIpc], "serve.trends");
      phase_.by_study[s].push_back(static_cast<double>(cycle.finish()));
      ++phase_.cycles;
    }
    phase_.finals.push_back(std::move(last));
    phase_.journal_bytes += directory_bytes(state_dir);
    call(study.close, "serve.close_study");
  }

private:
  pt::serve::NdjsonClient& client_;
  LivePhase& phase_;
};

void measure(Server& server, const std::string& state_dir,
             const std::vector<StudyRequests>& requests, double seconds,
             LivePhase& phase) {
  auto client = open_client(server);
  Analyst analyst(*client, phase);
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  try {
    do {
      const std::int64_t pass_start = now_ns();
      const std::uint64_t cycles = phase.cycles;
      for (std::size_t s = 0; s < requests.size(); ++s)
        analyst.replay(s, requests[s], state_dir);
      ++phase.passes;
      phase.pass_rates.push_back(
          static_cast<double>(phase.cycles - cycles) * 1e9 /
          static_cast<double>(now_ns() - pass_start));
    } while (now_ns() < deadline || !tail_supported(phase.cycles, 0.90));
  } catch (const std::exception&) {
    // Transport failure: the request in flight is unanswered.
    ++phase.failed;
    phase.lost = true;
  }
  phase.wall_ns = static_cast<double>(now_ns() - start);
}

// Every study's final served regions/trends must equal the batch reference.
void check_finals(const LivePhase& phase,
                  const std::vector<Reference>& reference, Outcome& out) {
  std::uint64_t bad = 0;
  for (const FinalAnswer& answer : phase.finals) {
    if (result_field(answer.regions, "text") != reference[answer.study].regions)
      ++bad;
    if (result_field(answer.trends, "csv") != reference[answer.study].trends)
      ++bad;
  }
  if (bad > 0)
    out.problems.push_back(std::to_string(bad) +
                           " final regions/trends answers differ from the "
                           "batch reference");
  out.failed += bad;
  if (phase.lost) out.problems.push_back("lost the daemon during the run");
}

std::uint64_t served_digest(const LivePhase& phase, std::size_t studies) {
  std::uint64_t hash = pt::store::fnv1a64({});  // the offset basis
  for (std::size_t i = 0; i < studies && i < phase.finals.size(); ++i) {
    hash = pt::store::fnv1a64(result_field(phase.finals[i].regions, "text"),
                              hash);
    hash = pt::store::fnv1a64(result_field(phase.finals[i].trends, "csv"),
                              hash);
  }
  return hash;
}

}  // namespace

Outcome run_live_append(const Options& options) {
  Outcome out;
  SetupRuns setup;
  Corpus corpus;
  std::vector<StudyRequests> requests;
  Server server;
  std::string setup_dir;
  for (int run = 0; run < kSetupRuns; ++run) {
    if (server.daemon) {
      if (!stop_server(server))
        out.problems.push_back("perftrackd did not exit 0 after set-up " +
                               std::to_string(run));
      std::filesystem::remove_all(setup_dir);
    }
    const std::int64_t start = setup_start(options, setup);
    setup_dir = "setup" + std::to_string(run);
    corpus = make_corpus(options.seed, setup_dir + "/corpus", true);
    requests = render_requests(corpus);
    server = start_server(options, setup_dir + "/daemon",
                          setup_dir + "/state", false);
    setup.total_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    setup.generate_ms.push_back(corpus.generate_ms);
    setup.write_ms.push_back(corpus.write_ms);
    setup.start_ms.push_back(server.start_ms);
  }
  const std::string state_dir = setup_dir + "/state";
  const std::vector<Reference> reference = compute_reference(corpus);
  out.info.push_back("daemon argv: " + server.daemon->command_line());

  const DaemonSnapshot before = snapshot(server);
  LivePhase untraced(false, requests.size());
  measure(server, state_dir, requests,
          options.trace ? options.seconds / 2 : options.seconds, untraced);
  const DaemonSnapshot after = snapshot(server);
  if (!stop_server(server))
    out.problems.push_back("perftrackd did not exit 0 after the run");
  check_finals(untraced, reference, out);
  out.attempted = untraced.requests;
  out.failed += untraced.failed;
  out.info.push_back("ptt digest " + hex64(corpus_digest(corpus)) +
                     ", reference digest " +
                     hex64(reference_digest(reference)) +
                     ", served digest " +
                     hex64(served_digest(untraced, requests.size())));

  const double cycles = static_cast<double>(untraced.cycles);
  const double cycles_per_s = pt::percentile(untraced.pass_rates, 50);
  const OpMix mix = op_mix(untraced.by_study);
  setup.report(out.metrics, corpus, false);
  report_end_to_end(out.metrics, cycles_per_s, mix.typical_ms,
                    mix.slowest_ms, after.proc.peak_rss_mb, out.attempted,
                    out.failed);
  out.metrics.add("cycles_per_s", "1/s", cycles_per_s);
  out.metrics.add("cycle_p50_ms", "ms",
                  quantile_of(untraced.recorder, "cycle", 0.50, 1e-6));
  out.metrics.add("cycle_p90_ms", "ms",
                  quantile_of(untraced.recorder, "cycle", 0.90, 1e-6));
  if (!options.trace) {
    std::filesystem::remove_all(setup_dir);
    return out;
  }

  setup.report(out.metrics, corpus, true);
  for (const char* method : {"append", "regions", "trends"}) {
    const std::string span = std::string("serve.") + method;
    add_layer(out.metrics, span + "_ms.p50",
              quantile_of(untraced.recorder, span, 0.50, 1e-6));
    add_layer(out.metrics, span + "_ms.p90",
              quantile_of(untraced.recorder, span, 0.90, 1e-6));
  }
  const double requests_sent = static_cast<double>(untraced.requests);
  add_layer(out.metrics, "serve.request_bytes",
            static_cast<double>(untraced.request_bytes) / requests_sent);
  add_layer(out.metrics, "serve.response_bytes",
            static_cast<double>(untraced.response_bytes) / requests_sent);
  report_daemon_layers(out.metrics, before, after, cycles);
  add_layer(out.metrics, "serve.journal_bytes",
            static_cast<double>(untraced.journal_bytes) /
                static_cast<double>(untraced.passes));

  // Traced half: a fresh daemon with --profile, so its run report covers
  // exactly this phase.
  Server traced_server =
      start_server(options, "traced/daemon", "traced/state", true);
  LivePhase traced(true, requests.size());
  measure(traced_server, "traced/state", requests, options.seconds / 2,
          traced);
  if (!stop_server(traced_server))
    out.problems.push_back("traced perftrackd did not exit 0");
  check_finals(traced, reference, out);
  out.attempted += traced.requests;
  out.failed += traced.failed;
  const ProgramProfile profile = load_profile(traced_server.profile_path());

  const double traced_cycles = static_cast<double>(traced.cycles);
  report_daemon_tracking(out.metrics, profile, traced_cycles);
  report_tracing(out.metrics, out.info, options, traced.recorder,
                 untraced.wall_ns / cycles, traced.wall_ns / traced_cycles,
                 profile);
  complete_layer_catalogue(out.metrics);
  std::filesystem::remove_all(setup_dir);
  std::filesystem::remove_all("traced");
  return out;
}

}  // namespace perfbench
