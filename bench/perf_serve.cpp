// perf_serve — the tracking service vs the batch pipeline it wraps.
//
// perftrackd's pitch is that putting TrackingSession behind a daemon costs
// protocol overhead, not correctness: a client that appends a study's
// traces and reads regions/trends over the wire must get the very bytes a
// batch `perftrack track` run prints, and concurrent readers must not
// serialise behind each other (reads take the study lock shared and serve
// from the cached result).
//
// Leg A (the correctness verdict): drive the hydroc study through
// TrackingService — open, append every trace inline, read regions and
// trends — and compare byte-for-byte against a batch run (one retrack of a
// fresh TrackingSession) with the same configuration. Append wall time is
// reported next to the batch run for context.
//
// Leg B: read throughput on a warm study, one reader vs a pool of 4.
// Hot reads are render-cache hits (one hash lookup, no study lock), so
// 4 pooled connections should deliver up to 4x one connection's
// throughput. The >= 4x bar is a timing bar, not a correctness verdict:
// advisory_read_scaling_ge4 warns and never fails the run, and it is
// waived (and reported so) when the host has fewer than 4 cores, where
// the ratio measures the scheduler instead. The raw scaling factor is
// exported as read_scaling.
//
// Leg C: the stream server end to end — a ping flood through serve_stream,
// one request in flight at a time. Every request must be answered exactly
// once, in order (the verdict); the sustained request rate bounds the
// protocol overhead per call. The metrics plane must have recorded exactly
// one end-to-end latency sample per ping (a deterministic verdict), and
// the observed p50/p99 are exported as advisory gauges.
//
// Leg D: the same flood with ServiceConfig::metrics=false — the recording
// overhead of the live metrics plane, best-of-N both ways. The bar is
// advisory (< 1% is below shared-runner noise) but the gauge pins the
// number the header comment in serve/metrics.hpp promises.
//
// Leg E (the durability verdict): run the study against a journaled
// service (--state-dir semantics, fsync=always), destroy the service
// mid-life, restart a second one on the same state dir, and compare its
// regions/trends byte-for-byte against the uninterrupted Leg A bytes —
// verdict_recovery_identity. The per-append latency of every fsync mode
// is exported as advisory gauges, the journal's cost sheet.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/studies.hpp"
#include "trace/trace_io.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/trends.hpp"

using namespace perftrack;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

serve::Request request(const std::string& method,
                       const std::string& study = "") {
  serve::Request r;
  r.method = method;
  r.study = study;
  return r;
}

serve::Request append_request(const std::string& study,
                              const trace::Trace& trace) {
  serve::Request r = request("append_experiment", study);
  std::ostringstream text;
  trace::write_trace(text, trace);
  r.params.type = obs::JsonValue::Type::Object;
  obs::JsonValue inline_trace;
  inline_trace.type = obs::JsonValue::Type::String;
  inline_trace.string = text.str();
  r.params.object["trace"] = std::move(inline_trace);
  return r;
}

std::string result_field(const serve::Response& response, const char* key) {
  if (!response.ok) {
    std::fprintf(stderr, "request failed: %s\n", response.message.c_str());
    return {};
  }
  return obs::parse_json(response.result_json).at(key).string;
}

}  // namespace

int main() {
  bench::enable_telemetry();
  bench::print_title("perf_serve",
                     "perftrackd service vs the batch pipeline it wraps");
  bench::print_paper(
      "a daemon front-end may add protocol overhead but must serve the "
      "identical bytes, and shared-lock reads must not serialise");

  sim::Study study = sim::study_hydroc();

  // ---- Leg A: daemon reads vs batch pipeline, byte for byte. -----------
  bench::print_section("daemon vs batch (hydroc study, inline appends)");

  tracking::SessionConfig session_config;
  session_config.clustering = study.clustering;

  Clock::time_point start = Clock::now();
  tracking::TrackingSession batch_session(session_config);
  for (const auto& t : study.traces) batch_session.append_experiment(t);
  tracking::TrackingResult batch = batch_session.retrack();
  double batch_ms = ms_since(start);
  const std::string batch_regions = tracking::describe_tracking(batch);
  const std::string batch_trends = tracking::trends_csv(batch);

  serve::ServiceConfig service_config;
  service_config.session = session_config;
  serve::TrackingService service(service_config);

  start = Clock::now();
  bool ok = service.handle(request("open_study", "hydroc")).ok;
  for (const auto& t : study.traces)
    ok = ok && service.handle(append_request("hydroc", *t)).ok;
  serve::Request trends_request = request("trends", "hydroc");
  trends_request.params.type = obs::JsonValue::Type::Object;
  obs::JsonValue metric;
  metric.type = obs::JsonValue::Type::String;
  metric.string = "IPC";
  trends_request.params.object["metric"] = std::move(metric);
  const std::string served_regions =
      result_field(service.handle(request("regions", "hydroc")), "text");
  const std::string served_trends =
      result_field(service.handle(trends_request), "csv");
  double served_ms = ms_since(start);

  bool identical = ok && served_regions == batch_regions &&
                   served_trends == batch_trends;
  std::printf("batch pipeline:        %.1f ms\n", batch_ms);
  std::printf("daemon open+append+read: %.1f ms (%zu inline appends)\n",
              served_ms, study.traces.size());
  std::printf("served bytes identical to batch: %s\n\n",
              identical ? "yes" : "NO — EQUIVALENCE BROKEN");

  // ---- Leg B: warm-study read throughput, 1 reader vs a pool of 4. -----
  bench::print_section("warm read throughput (render-cache regions reads)");
  const int kReads = 2000;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned pool = std::min(4u, hw);

  // Warm the cache once so both sides measure the hit path, then take
  // the best of several reps (wall-clock ratios are flaky on shared
  // runners; the best rep is the least-preempted one).
  service.handle(request("regions", "hydroc"));
  double single_rps = 0.0, pooled_rps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    start = Clock::now();
    for (int i = 0; i < kReads; ++i)
      service.handle(request("regions", "hydroc"));
    single_rps = std::max(single_rps, 1000.0 * kReads / ms_since(start));

    start = Clock::now();
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < pool; ++t) {
      readers.emplace_back([&] {
        for (int i = 0; i < kReads; ++i)
          service.handle(request("regions", "hydroc"));
      });
    }
    for (std::thread& reader : readers) reader.join();
    pooled_rps =
        std::max(pooled_rps, 1000.0 * kReads * pool / ms_since(start));
  }
  double scaling = pooled_rps / single_rps;
  // The bars only mean something with real parallelism underneath: a
  // host with < 4 cores cannot express 4x, so the bar is waived (it
  // measures cores, not the cache).
  bool scaling_ok = pool < 2 || scaling >= 1.2;
  bool scaling_ge4 = hw < 4 || scaling >= 4.0;

  std::printf("1 connection:  %9.0f reads/s\n", single_rps);
  std::printf("%u connections: %9.0f reads/s (%.2fx)\n", pool, pooled_rps,
              scaling);
  std::printf("read scaling >= 4x with 4 connections: %s%s\n\n",
              scaling_ge4 ? "yes" : "NO",
              hw < 4 ? " (waived: fewer than 4 cores)" : "");

  // ---- Leg C: stream server ping flood. ---------------------------------
  bench::print_section("stream server (ping flood)");
  const int kPings = 2000;
  std::string input;
  for (int i = 0; i < kPings; ++i)
    input += "{\"id\":" + std::to_string(i) + ",\"method\":\"ping\"}\n";
  const serve::ServerOptions options;

  // One flood through a fresh service; answers must come back exactly
  // once, in order. Returns wall time.
  auto flood = [&](serve::TrackingService& target, bool& answered) {
    std::istringstream in(input);
    std::ostringstream out;
    Clock::time_point begin = Clock::now();
    int exit_code = serve::serve_stream(target, in, out, options);
    double ms = ms_since(begin);
    answered = exit_code == 0;
    std::istringstream lines(out.str());
    std::string line;
    int next_id = 0;
    while (std::getline(lines, line)) {
      obs::JsonValue v = obs::parse_json(line);
      answered = answered && v.at("ok").boolean &&
                 v.at("id").number == static_cast<double>(next_id);
      ++next_id;
    }
    answered = answered && next_id == kPings;
    return ms;
  };

  serve::TrackingService ping_service;  // metrics on by default
  bool all_answered = false;
  double flood_ms = flood(ping_service, all_answered);

  // The metrics plane saw every ping end to end: the request_ns histogram
  // holds exactly kPings samples, and its quantiles are the request
  // latency this flood actually delivered.
  obs::HistogramSnapshot ping_latency =
      ping_service.metrics()
          .registry()
          .histogram("perftrackd_request_ns", "method=\"ping\"")
          .snapshot();
  bool metrics_complete =
      ping_latency.count == static_cast<std::uint64_t>(kPings);
  std::printf("%d pings: %.1f ms (%.0f req/s)\n", kPings, flood_ms,
              1000.0 * kPings / flood_ms);
  std::printf("request_ns p50/p99/max: %llu / %llu / %llu ns\n",
              static_cast<unsigned long long>(ping_latency.quantile(0.50)),
              static_cast<unsigned long long>(ping_latency.quantile(0.99)),
              static_cast<unsigned long long>(ping_latency.max));
  std::printf("every request answered once, in order: %s\n",
              all_answered ? "yes" : "NO");
  std::printf("metrics recorded every ping: %s (%llu of %d)\n\n",
              metrics_complete ? "yes" : "NO",
              static_cast<unsigned long long>(ping_latency.count), kPings);

  // ---- Leg D: recording overhead — metrics on vs metrics off. ----------
  bench::print_section("metrics recording overhead (ping flood, best of 5)");
  const int kReps = 5;
  double best_on_ms = flood_ms;
  double best_off_ms = 1e300;
  bool overhead_floods_ok = true;
  for (int rep = 0; rep < kReps; ++rep) {
    bool rep_ok = false;
    serve::TrackingService on_service;
    best_on_ms = std::min(best_on_ms, flood(on_service, rep_ok));
    overhead_floods_ok = overhead_floods_ok && rep_ok;

    serve::ServiceConfig off_config;
    off_config.metrics = false;
    serve::TrackingService off_service(off_config);
    best_off_ms = std::min(best_off_ms, flood(off_service, rep_ok));
    overhead_floods_ok = overhead_floods_ok && rep_ok;
  }
  double overhead_pct = 100.0 * (best_on_ms - best_off_ms) / best_off_ms;
  bool overhead_ok = overhead_floods_ok && overhead_pct < 1.0;
  std::printf("metrics on:  %.1f ms best\n", best_on_ms);
  std::printf("metrics off: %.1f ms best\n", best_off_ms);
  std::printf("recording overhead: %+.2f%% (advisory bar < 1%%)\n\n",
              overhead_pct);

  // ---- Leg E: crash-restart identity + fsync-mode append latency. ------
  bench::print_section("journal durability (restart identity, fsync cost)");
  namespace fs = std::filesystem;
  const fs::path state_root =
      fs::temp_directory_path() / "pt_bench_serve_state";
  fs::remove_all(state_root);

  auto durable_config = [&](serve::FsyncMode mode, const char* leg) {
    serve::ServiceConfig config;
    config.session = session_config;
    config.journal.directory = (state_root / leg).string();
    config.journal.fsync = mode;
    return config;
  };

  // Appends split across two service lifetimes; the first one is dropped
  // without any explicit flush (fsync=always keeps every record durable).
  const std::size_t half = study.traces.size() / 2;
  std::string recovered_regions, recovered_trends;
  {
    serve::TrackingService first(
        durable_config(serve::FsyncMode::Always, "identity"));
    bool durable_ok = first.handle(request("open_study", "hydroc")).ok;
    for (std::size_t i = 0; i < half; ++i)
      durable_ok =
          durable_ok &&
          first.handle(append_request("hydroc", *study.traces[i])).ok;
    if (!durable_ok) std::fprintf(stderr, "journaled appends failed\n");
  }  // "crash": the first service dies here with studies in flight
  {
    serve::TrackingService second(
        durable_config(serve::FsyncMode::Always, "identity"));
    bool durable_ok = true;
    for (std::size_t i = half; i < study.traces.size(); ++i)
      durable_ok =
          durable_ok &&
          second.handle(append_request("hydroc", *study.traces[i])).ok;
    if (!durable_ok) std::fprintf(stderr, "post-restart appends failed\n");
    recovered_regions =
        result_field(second.handle(request("regions", "hydroc")), "text");
    serve::Request recovered_trends_request = request("trends", "hydroc");
    recovered_trends_request.params = trends_request.params;
    recovered_trends =
        result_field(second.handle(recovered_trends_request), "csv");
  }
  const bool recovery_identity = recovered_regions == batch_regions &&
                                 recovered_trends == batch_trends;
  std::printf("restarted daemon identical to uninterrupted batch: %s\n",
              recovery_identity ? "yes" : "NO — DURABILITY BROKEN");

  // Advisory append latency per fsync mode (including journal writes).
  double append_us[3] = {0.0, 0.0, 0.0};
  const serve::FsyncMode kModes[3] = {
      serve::FsyncMode::Always, serve::FsyncMode::Batch,
      serve::FsyncMode::Off};
  for (int m = 0; m < 3; ++m) {
    serve::TrackingService timed(
        durable_config(kModes[m], serve::fsync_mode_name(kModes[m]).data()));
    timed.handle(request("open_study", "hydroc"));
    start = Clock::now();
    for (const auto& t : study.traces)
      timed.handle(append_request("hydroc", *t));
    append_us[m] =
        1000.0 * ms_since(start) / static_cast<double>(study.traces.size());
    std::printf("append latency, fsync=%-6s %8.1f us/append\n",
                std::string(serve::fsync_mode_name(kModes[m])).c_str(),
                append_us[m]);
  }
  std::printf("\n");
  fs::remove_all(state_root);

  PT_GAUGE("verdict_identical", identical ? 1.0 : 0.0);
  PT_GAUGE("verdict_recovery_identity", recovery_identity ? 1.0 : 0.0);
  PT_GAUGE("advisory_append_fsync_always_us", append_us[0]);
  PT_GAUGE("advisory_append_fsync_batch_us", append_us[1]);
  PT_GAUGE("advisory_append_fsync_off_us", append_us[2]);
  PT_GAUGE("verdict_all_answered", all_answered ? 1.0 : 0.0);
  PT_GAUGE("verdict_metrics_complete", metrics_complete ? 1.0 : 0.0);
  PT_GAUGE("advisory_read_scaling_ge4", scaling_ge4 ? 1.0 : 0.0);
  PT_GAUGE("advisory_read_scaling_ge1_2", scaling_ok ? 1.0 : 0.0);
  PT_GAUGE("advisory_metrics_overhead_lt_1pct", overhead_ok ? 1.0 : 0.0);
  PT_GAUGE("advisory_ping_p50_ns",
           static_cast<double>(ping_latency.quantile(0.50)));
  PT_GAUGE("advisory_ping_p99_ns",
           static_cast<double>(ping_latency.quantile(0.99)));
  PT_GAUGE("metrics_overhead_pct", overhead_pct);
  PT_GAUGE("read_scaling", scaling);
  PT_GAUGE("read_rps_single", single_rps);
  PT_GAUGE("read_rps_pooled", pooled_rps);
  PT_GAUGE("ping_rps", 1000.0 * kPings / flood_ms);
  bench::write_telemetry("BENCH_serve.json", "perf_serve");

  bool pass =
      identical && all_answered && metrics_complete && recovery_identity;
  std::printf("\nperf_serve: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
