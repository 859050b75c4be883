// dashboard-read: every study preloaded and every read shape rendered once
// during set-up; then kReaders connections, each a closed loop, issue a
// seeded mix of reads over random studies:
//
//   regions 25%, trends 40% (IPC / Instructions, half each),
//   coverage 20%, stats 10%, report 5%.
//
// The serve layer does reads only: transport, request parsing, dispatch,
// render-cache hits, metrics recording and response writes, no tracking.

#include <algorithm>
#include <filesystem>
#include <random>
#include <thread>

#include "bench/served.hpp"
#include "common/stats.hpp"

namespace perfbench {

namespace {

constexpr int kReaders = 2;
// Enough reads that the 5% report share still has ten samples beyond its
// p99.
constexpr std::uint64_t kMinReadsPerReader = 15000;
// Reads per connection before timing starts: the first reads after the
// preload run slower (see README.md, warm-up).
constexpr std::uint64_t kWarmupReadsPerReader = 5000;
// Reads per second is the median over slices of this length: reads stall
// for milliseconds in bursts (see README.md), and one burst would otherwise
// decide the rate of a whole run.
constexpr double kSliceNs = 1e9;
// The read methods, each a group of its own in the end-to-end numbers.
constexpr const char* kMethodSpans[] = {"serve.regions", "serve.trends",
                                        "serve.coverage", "serve.stats",
                                        "serve.report"};

std::size_t pick_shape(std::uint64_t draw) {
  const std::uint64_t u = draw % 100;
  if (u < 25) return kRegions;
  if (u < 45) return kTrendsIpc;
  if (u < 65) return kTrendsInstructions;
  if (u < 85) return kCoverage;
  if (u < 95) return kStats;
  return kReport;
}

/// The first answer to every (study, shape): later answers must equal it.
using FirstAnswers = std::vector<std::array<std::string, kShapeCount>>;

struct Reader {
  Recorder recorder;
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  std::vector<std::uint64_t> slice_reads;  ///< reads completed per slice
  bool lost = false;
  Reader(bool keep_spans, std::uint64_t op_base)
      : recorder(keep_spans, op_base) {}
};

struct ReadPhase {
  std::vector<Reader> readers;
  double wall_ns = 0;
  std::uint64_t reads() const {
    std::uint64_t n = 0;
    for (const Reader& r : readers) n += r.reads;
    return n;
  }
  /// Reads per second of every whole slice, all connections together.
  std::vector<double> slice_rates() const {
    std::vector<double> rates;
    for (std::size_t i = 0; (static_cast<double>(i) + 1) * kSliceNs <= wall_ns;
         ++i) {
      std::uint64_t n = 0;
      for (const Reader& r : readers)
        if (i < r.slice_reads.size()) n += r.slice_reads[i];
      rates.push_back(static_cast<double>(n) * 1e9 / kSliceNs);
    }
    return rates;
  }
};

// One connection's closed loop until `deadline` (and at least `min_reads`).
void read_loop(const Server& server,
               const std::vector<StudyRequests>& requests,
               const FirstAnswers& first, std::uint64_t seed,
               std::int64_t start, std::int64_t deadline,
               std::uint64_t min_reads, Reader& reader) {
  try {
    auto client = open_client(server);
    std::mt19937_64 rng(seed);
    while (now_ns() < deadline || reader.reads < min_reads) {
      const std::size_t s = rng() % requests.size();
      const std::size_t shape = pick_shape(rng());
      const Request& request = requests[s].reads[shape];
      ++reader.reads;
      reader.request_bytes += request.line.size() + 1;
      std::string line;
      {
        reader.recorder.begin_op();
        Span op(reader.recorder, "read");
        Span call(reader.recorder, shape_span(shape));
        line = client->roundtrip(request.line);
      }
      reader.response_bytes += line.size() + 1;
      if (line != first[s][shape]) ++reader.failed;
      const auto slice = static_cast<std::size_t>(
          static_cast<double>(now_ns() - start) / kSliceNs);
      if (slice >= reader.slice_reads.size())
        reader.slice_reads.resize(slice + 1);
      ++reader.slice_reads[slice];
    }
  } catch (const std::exception&) {
    ++reader.failed;  // the read in flight went unanswered
    reader.lost = true;
  }
}

void measure(const Server& server,
             const std::vector<StudyRequests>& requests,
             const FirstAnswers& first, std::uint64_t seed, double seconds,
             std::uint64_t min_reads, bool keep_spans, ReadPhase& phase) {
  phase.readers.clear();
  for (int r = 0; r < kReaders; ++r)
    phase.readers.emplace_back(keep_spans, std::uint64_t(r) << 40);
  const std::int64_t start = now_ns();
  // At least one whole slice, so that there is a rate to report.
  const auto deadline =
      start + static_cast<std::int64_t>(std::max(seconds * 1e9, kSliceNs));
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r)
    threads.emplace_back(read_loop, std::cref(server), std::cref(requests),
                         std::cref(first), seed * 7919 + std::uint64_t(r),
                         start, deadline, min_reads,
                         std::ref(phase.readers[r]));
  for (std::thread& t : threads) t.join();
  phase.wall_ns = static_cast<double>(now_ns() - start);
}

Recorder merged(ReadPhase& phase) {
  Recorder all(phase.readers.front().recorder.keep_spans());
  for (Reader& reader : phase.readers) all.merge(std::move(reader.recorder));
  return all;
}

// Open every study, append all of its experiments, then read every shape
// once; returns those first answers. Failed requests are problems.
FirstAnswers preload(Server& server, const std::vector<StudyRequests>& requests,
                     bool append, Outcome& out) {
  auto expect = [&](const Request& request) {
    std::string line = server.control->roundtrip(request.line);
    if (!request.ok(line))
      out.problems.push_back("preload request failed: " + line.substr(0, 200));
    return line;
  };
  if (append)
    for (const StudyRequests& study : requests) {
      expect(study.open);
      for (const Request& request : study.appends) expect(request);
    }
  FirstAnswers first(requests.size());
  for (std::size_t s = 0; s < requests.size(); ++s)
    for (std::size_t shape = 0; shape < kShapeCount; ++shape)
      first[s][shape] = expect(requests[s].reads[shape]);
  return first;
}

void check_first(const FirstAnswers& first,
                 const std::vector<Reference>& reference, Outcome& out) {
  for (std::size_t s = 0; s < first.size(); ++s) {
    const bool same =
        result_field(first[s][kRegions], "text") == reference[s].regions &&
        result_field(first[s][kTrendsIpc], "csv") == reference[s].trends &&
        result_field(first[s][kTrendsInstructions], "csv") ==
            reference[s].trends;
    if (!same)
      out.problems.push_back("served regions/trends of study " +
                             std::to_string(s) +
                             " differ from the batch reference");
  }
}

void count(const ReadPhase& phase, Outcome& out) {
  for (const Reader& reader : phase.readers) {
    out.attempted += reader.reads;
    out.failed += reader.failed;
    if (reader.lost) out.problems.push_back("a reader lost its connection");
  }
}

}  // namespace

Outcome run_dashboard_read(const Options& options) {
  Outcome out;
  SetupRuns setup;
  Corpus corpus;
  std::vector<StudyRequests> requests;
  Server server;
  FirstAnswers first;
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
    const std::int64_t preload_start = now_ns();
    first = preload(server, requests, true, out);
    setup.total_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    setup.generate_ms.push_back(corpus.generate_ms);
    setup.write_ms.push_back(corpus.write_ms);
    setup.start_ms.push_back(server.start_ms);
    setup.preload_ms.push_back(static_cast<double>(now_ns() - preload_start) /
                               1e6);
  }
  const std::string state_dir = setup_dir + "/state";
  const std::vector<Reference> reference = compute_reference(corpus);
  check_first(first, reference, out);
  out.info.push_back("ptt digest " + hex64(corpus_digest(corpus)) +
                     ", reference digest " +
                     hex64(reference_digest(reference)));
  out.info.push_back("daemon argv: " + server.daemon->command_line());

  ReadPhase warmup;
  measure(server, requests, first, options.seed + 1, 0, kWarmupReadsPerReader,
          false, warmup);
  const DaemonSnapshot before = snapshot(server);
  ReadPhase untraced;
  measure(server, requests, first, options.seed,
          options.trace ? options.seconds / 2 : options.seconds,
          kMinReadsPerReader, false, untraced);
  const DaemonSnapshot after = snapshot(server);
  const std::uint64_t journal_bytes = directory_bytes(state_dir);
  if (!stop_server(server))
    out.problems.push_back("perftrackd did not exit 0 after the run");
  count(warmup, out);
  count(untraced, out);

  const double reads = static_cast<double>(untraced.reads());
  const Recorder all = merged(untraced);
  const double reads_per_s = perftrack::percentile(untraced.slice_rates(), 50);
  std::vector<std::vector<double>> by_method;
  for (const char* span : kMethodSpans)
    by_method.push_back(all.all_durations().at(span));
  const OpMix mix = op_mix(by_method);
  setup.report(out.metrics, corpus, false);
  report_end_to_end(out.metrics, reads_per_s, mix.typical_ms,
                    mix.slowest_ms, after.proc.peak_rss_mb, out.attempted,
                    out.failed);
  out.metrics.add("reads_per_s", "1/s", reads_per_s);
  out.metrics.add("read_p50_us", "us", quantile_of(all, "read", 0.50, 1e-3));
  out.metrics.add("read_p99_us", "us", quantile_of(all, "read", 0.99, 1e-3));
  if (!options.trace) {
    std::filesystem::remove_all(setup_dir);
    return out;
  }

  setup.report(out.metrics, corpus, true);
  for (const std::string span : kMethodSpans) {
    add_layer(out.metrics, span + "_us.p50", quantile_of(all, span, 0.50, 1e-3));
    add_layer(out.metrics, span + "_us.p99", quantile_of(all, span, 0.99, 1e-3));
  }
  double request_bytes = 0, response_bytes = 0;
  for (const Reader& reader : untraced.readers) {
    request_bytes += static_cast<double>(reader.request_bytes);
    response_bytes += static_cast<double>(reader.response_bytes);
  }
  add_layer(out.metrics, "serve.request_bytes", request_bytes / reads);
  add_layer(out.metrics, "serve.response_bytes", response_bytes / reads);
  report_daemon_layers(out.metrics, before, after, reads);
  add_layer(out.metrics, "serve.journal_bytes",
            static_cast<double>(journal_bytes));

  // Traced half. A --profile report covers a daemon's whole life, so two
  // traced daemons recover the same state dir, render every shape once
  // and serve the same warm-up reads; only the second then serves the timed
  // reads, and the difference of their reports is the timed window.
  Server baseline = start_server(options, "traced-a", state_dir, true);
  const FirstAnswers baseline_first = preload(baseline, requests, false, out);
  check_first(baseline_first, reference, out);
  ReadPhase baseline_warmup;
  measure(baseline, requests, baseline_first, options.seed + 1, 0,
          kWarmupReadsPerReader, false, baseline_warmup);
  count(baseline_warmup, out);
  if (!stop_server(baseline))
    out.problems.push_back("traced perftrackd did not exit 0");
  Server traced_server = start_server(options, "traced-b", state_dir, true);
  const FirstAnswers traced_first =
      preload(traced_server, requests, false, out);
  check_first(traced_first, reference, out);
  ReadPhase traced_warmup;
  measure(traced_server, requests, traced_first, options.seed + 1, 0,
          kWarmupReadsPerReader, false, traced_warmup);
  ReadPhase traced;
  measure(traced_server, requests, traced_first, options.seed,
          options.seconds / 2, kMinReadsPerReader, true, traced);
  if (!stop_server(traced_server))
    out.problems.push_back("traced perftrackd did not exit 0");
  count(traced_warmup, out);
  count(traced, out);
  const ProgramProfile window =
      load_profile(traced_server.profile_path())
          .minus(load_profile(baseline.profile_path()));

  const double traced_reads = static_cast<double>(traced.reads());
  const Recorder traced_all = merged(traced);
  report_daemon_tracking(out.metrics, window, traced_reads);
  report_tracing(out.metrics, out.info, options, traced_all,
                 untraced.wall_ns / reads, traced.wall_ns / traced_reads,
                 window);
  complete_layer_catalogue(out.metrics);
  std::filesystem::remove_all(setup_dir);
  std::filesystem::remove_all("traced-a");
  std::filesystem::remove_all("traced-b");
  return out;
}

}  // namespace perfbench
