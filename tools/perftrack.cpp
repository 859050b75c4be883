// perftrack — command-line front end.
//
// Track behavioural regions across experiments given as .ptt trace files,
// or across time intervals of a single experiment:
//
//   perftrack track   [options] A.ptt B.ptt [C.ptt ...]
//   perftrack evolve  [options] --intervals N RUN.ptt
//   perftrack inspect TRACE.ptt
//   perftrack stat    SOCKET [--watch [--interval SEC] [--count N]]
//   perftrack connect ENDPOINT [--call METHOD [--study S] [--params JSON]]
//
// `stat` talks to a running perftrackd over its unix socket and prints a
// live operational summary (qps, per-method p50/p99, queue depth) from
// the daemon's `stats` method; --watch refreshes it periodically.
//
// `connect` is the general-purpose protocol client: ENDPOINT is a unix
// socket path or "tcp://HOST:PORT" (a daemon started with --listen).
// With --call it sends one request and prints the response line; without
// it, it reads NDJSON request lines from stdin and prints each response
// line to stdout (a scriptable REPL). --retries/--deadline bound each
// roundtrip with the client's retry policy.
//
// Flags live in the cli::OptionTable below — the table generates the usage
// text, so run `perftrack` with no arguments for the current list.
//
// Exit codes: 0 success, 1 internal error, 2 usage, 3 parse failure,
// 4 I/O failure, 5 degraded success (lenient run completed, but with
// diagnostics or gaps — see docs/ROBUSTNESS.md).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "cluster/scatter.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "serve/client.hpp"
#include "sim/studies.hpp"
#include "trace/slice.hpp"
#include "trace/trace_io.hpp"
#include "tracking/gnuplot.hpp"
#include "tracking/html_report.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"

using namespace perftrack;

namespace {

// Exit codes (documented above and in docs/ROBUSTNESS.md).
constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitIo = 4;
constexpr int kExitDegraded = 5;

struct Options {
  std::string command;
  std::vector<std::string> inputs;
  double eps = 0.025;
  std::size_t min_pts = 5;
  double min_cluster_frac = 0.005;
  std::size_t intervals = 8;
  std::string csv_path;
  std::string html_path;
  std::string gnuplot_base;
  std::string profile_path;
  std::string trace_events_path;
  bool matrices = false;
  bool scatter = false;
  bool lenient = false;
  std::size_t max_errors = 100;
  bool watch = false;
  std::size_t watch_interval_sec = 2;
  std::size_t watch_count = 0;
  std::string call_method;
  std::string call_study;
  std::string call_params;
  std::size_t retries = 1;
  std::size_t deadline_ms = 0;
  tracking::TrackingParams tracking;
};

/// The single source of truth for perftrack's flags: drives both parsing
/// and the usage text. Each numeric flag validates its operand here, so a
/// bad value is a usage error before any work starts.
cli::OptionTable option_table(Options& options) {
  cli::OptionTable table;
  table.tool = "perftrack";
  table.commands = {
      "track   [options] A.ptt B.ptt [...]",
      "evolve  [options] --intervals N RUN.ptt",
      "inspect [options] TRACE.ptt",
      "stat    SOCKET [--watch [--interval SEC] [--count N]]",
      "connect ENDPOINT [--call METHOD [--study S] [--params JSON]]",
  };
  table.footer =
      "exit codes: 0 ok, 1 error, 2 usage, 3 parse, 4 io,\n"
      "            5 degraded success (lenient, gaps/diagnostics)\n";
  auto* o = &options;
  table.add("--eps", "X", "DBSCAN radius in the normalised space (0.025)",
            [o](const std::string& v) {
              o->eps = cli::parse_double("--eps", v);
              if (o->eps <= 0.0)
                throw cli::UsageError("invalid value for --eps: '" + v +
                                      "' (must be positive)");
            });
  table.add("--min-pts", "N", "DBSCAN core threshold (5)",
            [o](const std::string& v) {
              o->min_pts = cli::parse_count("--min-pts", v, 1);
            });
  table.add("--min-cluster-frac", "F",
            "drop clusters below this time share (0.005)",
            [o](const std::string& v) {
              o->min_cluster_frac = cli::parse_double("--min-cluster-frac", v);
              if (o->min_cluster_frac < 0.0 || o->min_cluster_frac >= 1.0)
                throw cli::UsageError(
                    "invalid value for --min-cluster-frac: '" + v +
                    "' (must be in [0, 1))");
            });
  table.add("--intervals", "N", "time slices for evolve (8)",
            [o](const std::string& v) {
              o->intervals = cli::parse_count("--intervals", v, 2);
            });
  table.add("--csv", "FILE", "write per-region trends as CSV",
            [o](const std::string& v) { o->csv_path = v; });
  table.add("--html", "FILE",
            "write an animated HTML report (frames + trends)",
            [o](const std::string& v) { o->html_path = v; });
  table.add("--gnuplot", "BASE",
            "write BASE.{frames.dat,trends.dat,gp} for gnuplot",
            [o](const std::string& v) { o->gnuplot_base = v; });
  table.add_switch("--matrices",
                   "print the evaluator correlation matrices",
                   [o] { o->matrices = true; });
  table.add_switch("--scatter",
                   "print the tracked frames as ASCII scatter plots",
                   [o] { o->scatter = true; });
  table.add_switch("--no-spmd", "disable the SPMD structure heuristic",
                   [o] { o->tracking.use_spmd = false; });
  table.add_switch("--no-callstack", "disable the callstack heuristic",
                   [o] { o->tracking.use_callstack = false; });
  table.add_switch("--no-sequence", "disable the sequence heuristic",
                   [o] { o->tracking.use_sequence = false; });
  table.add_switch("--strict",
                   "abort on the first malformed record (default)",
                   [o] { o->lenient = false; });
  table.add_switch("--lenient",
                   "repair/skip malformed records under an error budget; "
                   "failed experiments become sequence gaps",
                   [o] { o->lenient = true; });
  table.add("--max-errors", "N",
            "lenient-mode error budget per input file (100)",
            [o](const std::string& v) {
              o->max_errors = cli::parse_count("--max-errors", v);
            });
  table.add("--threads", "N",
            "worker threads for clustering/tracking, at most 256 (default: "
            "hardware concurrency; 1 = serial, same output)",
            [o](const std::string& v) {
              o->tracking.threads = cli::parse_count(
                  "--threads", v, 0, ThreadPool::kMaxThreads);
            });
  table.add("--profile", "FILE",
            "record pipeline telemetry, write a JSON run report",
            [o](const std::string& v) { o->profile_path = v; });
  table.add("--trace-events", "FILE",
            "record telemetry as Chrome trace_event JSON (open in Perfetto "
            "/ chrome://tracing)",
            [o](const std::string& v) { o->trace_events_path = v; });
  table.add_switch("--watch", "stat: refresh the summary periodically",
                   [o] { o->watch = true; });
  table.add("--interval", "SEC", "stat --watch refresh period (2)",
            [o](const std::string& v) {
              o->watch_interval_sec = cli::parse_count("--interval", v, 1);
            });
  table.add("--count", "N",
            "stat --watch: stop after N refreshes (0 = forever)",
            [o](const std::string& v) {
              o->watch_count = cli::parse_count("--count", v);
            });
  table.add("--call", "METHOD", "connect: send one request and exit",
            [o](const std::string& v) { o->call_method = v; });
  table.add("--study", "NAME", "connect --call: the target study",
            [o](const std::string& v) { o->call_study = v; });
  table.add("--params", "JSON",
            "connect --call: params object to send with the request",
            [o](const std::string& v) { o->call_params = v; });
  table.add("--retries", "N",
            "connect: attempts per roundtrip, with backoff (1)",
            [o](const std::string& v) {
              o->retries = cli::parse_count("--retries", v, 1);
            });
  table.add("--deadline", "MS",
            "connect: per-attempt connect/send/recv deadline (0 = none)",
            [o](const std::string& v) {
              o->deadline_ms = cli::parse_count("--deadline", v);
            });
  return table;
}

int usage(const cli::OptionTable& table) {
  std::fputs(table.usage().c_str(), stderr);
  return kExitUsage;
}

/// Per-run ingestion state: every file's diagnostics plus gap bookkeeping,
/// so the end of the run can print one summary and pick the exit code.
struct IngestReport {
  std::size_t files = 0;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t failed_files = 0;

  void absorb(const Diagnostics& diags) {
    ++files;
    errors += diags.error_count();
    warnings += diags.warning_count();
    if (!diags.empty()) std::fputs(diags.to_string().c_str(), stderr);
    if (!diags.ok())
      std::fprintf(stderr, "perftrack: %s\n", diags.summary().c_str());
  }

  bool degraded() const { return errors > 0 || failed_files > 0; }
};

ErrorBudget budget_of(const Options& options) {
  ErrorBudget budget;
  budget.max_errors = options.max_errors;
  return budget;
}

/// The pool --threads selects; a trace's chunks are read on it too, so
/// --threads 1 reads inline.
ThreadPool& pool_of(const Options& options) {
  return ThreadPool::shared(ThreadPool::resolve(options.tracking.threads));
}

/// Load one trace honouring the strict/lenient mode. Lenient failures are
/// reported and recorded as a sequence gap; strict failures propagate.
bool load_experiment(const Options& options, const std::string& path,
                     tracking::TrackingSession& session,
                     IngestReport& ingest) {
  if (!options.lenient) {
    Diagnostics diags;
    session.append_experiment(std::make_shared<const trace::Trace>(
        trace::load_trace(path, diags, pool_of(options))));
    return true;
  }
  Diagnostics diags = Diagnostics::lenient(budget_of(options));
  try {
    auto loaded = std::make_shared<const trace::Trace>(
        trace::load_trace(path, diags, pool_of(options)));
    ingest.absorb(diags);
    session.append_experiment(std::move(loaded));
    return true;
  } catch (const Error& error) {
    ingest.absorb(diags);
    ++ingest.failed_files;
    std::fprintf(stderr, "perftrack: skipping %s: %s\n", path.c_str(),
                 error.what());
    session.append_gap(path, error.what());
    return false;
  }
}

/// The run configuration the flags describe, as one validated aggregate.
tracking::SessionConfig session_config(const Options& options) {
  tracking::SessionConfig config;
  config.clustering = sim::default_clustering();
  config.clustering.dbscan.eps = options.eps;
  config.clustering.dbscan.min_pts = options.min_pts;
  config.clustering.min_cluster_time_fraction = options.min_cluster_frac;
  config.tracking = options.tracking;
  config.resilience.lenient = options.lenient;
  return config;
}

int run_tracking(const Options& options, tracking::TrackingSession& session,
                 const IngestReport& ingest) {
  tracking::TrackingResult result = session.retrack();

  std::cout << tracking::describe_tracking(result) << "\n";
  std::cout << "IPC per region:\n"
            << tracking::trend_table(result, trace::Metric::Ipc).to_text(2)
            << "\n";

  if (options.matrices) {
    for (std::size_t p = 0; p < result.pairs.size(); ++p) {
      std::cout << "displacement " << result.frames[p].label() << " -> "
                << result.frames[p + 1].label() << ":\n"
                << result.pairs[p].displacement.a_to_b.to_text("A", "B")
                << "\ncallstack:\n"
                << result.pairs[p].callstack.to_text("A", "B") << "\n";
    }
  }
  if (options.scatter)
    std::cout << tracking::tracked_scatters(result) << "\n";
  if (!options.csv_path.empty()) {
    errno = 0;
    std::ofstream out(options.csv_path);
    if (!out) throw io_error("cannot open for writing", options.csv_path);
    out << tracking::trends_csv(result);
    std::printf("trends written to %s\n", options.csv_path.c_str());
  }
  if (!options.html_path.empty()) {
    tracking::save_html_report(options.html_path, result);
    std::printf("HTML report written to %s\n", options.html_path.c_str());
  }
  if (!options.gnuplot_base.empty()) {
    tracking::save_gnuplot(options.gnuplot_base, result);
    std::printf("gnuplot artefacts written to %s.{frames.dat,trends.dat,gp}\n",
                options.gnuplot_base.c_str());
  }

  // Degraded-success accounting: the run completed, but inputs were lost or
  // repaired along the way. Surface it in telemetry and the exit code.
  PT_COUNTER("parse_errors", static_cast<double>(ingest.errors));
  PT_COUNTER("parse_warnings", static_cast<double>(ingest.warnings));
  if (result.degraded() || ingest.degraded()) {
    std::fprintf(stderr,
                 "perftrack: degraded run: %zu of %zu experiments tracked, "
                 "%zu parse errors, %zu warnings\n",
                 result.frames.size(), result.sequence_length(),
                 ingest.errors, ingest.warnings);
    return kExitDegraded;
  }
  return kExitOk;
}

int cmd_track(const Options& options) {
  if (options.inputs.size() < 2) {
    std::fprintf(stderr, "track needs at least two trace files\n");
    return kExitUsage;
  }
  tracking::TrackingSession session(session_config(options));
  IngestReport ingest;
  for (const std::string& path : options.inputs)
    load_experiment(options, path, session, ingest);
  return run_tracking(options, session, ingest);
}

int cmd_evolve(const Options& options) {
  if (options.inputs.size() != 1) {
    std::fprintf(stderr, "evolve needs exactly one trace file\n");
    return kExitUsage;
  }
  tracking::TrackingSession session(session_config(options));
  IngestReport ingest;
  Diagnostics diags = options.lenient
                          ? Diagnostics::lenient(budget_of(options))
                          : Diagnostics::strict();
  trace::Trace run =
      trace::load_trace(options.inputs[0], diags, pool_of(options));
  if (options.lenient) ingest.absorb(diags);
  auto slices = trace::split_into_intervals(run, options.intervals);
  std::printf("split %s into %zu intervals\n", run.label().c_str(),
              slices.size());
  for (auto& slice : slices) session.append_experiment(std::move(slice));
  return run_tracking(options, session, ingest);
}

int cmd_inspect(const Options& options) {
  if (options.inputs.size() != 1) {
    std::fprintf(stderr, "inspect needs exactly one trace file\n");
    return kExitUsage;
  }
  IngestReport ingest;
  Diagnostics diags = options.lenient
                          ? Diagnostics::lenient(budget_of(options))
                          : Diagnostics::strict();
  trace::Trace t =
      trace::load_trace(options.inputs[0], diags, pool_of(options));
  if (options.lenient) ingest.absorb(diags);
  t.validate();
  std::printf("application %s, label %s, %u tasks, %zu bursts, %.3fs "
              "compute time\n",
              t.application().c_str(), t.label().c_str(), t.num_tasks(),
              t.burst_count(), t.total_computation_time());
  auto shared = std::make_shared<const trace::Trace>(std::move(t));
  cluster::ClusteringParams params = sim::default_clustering();
  params.dbscan.eps = options.eps;
  params.dbscan.min_pts = options.min_pts;
  cluster::Frame frame = cluster::build_frame(shared, params);
  std::printf("%zu behavioural clusters\n", frame.object_count());
  cluster::ScatterOptions scatter;
  scatter.x_axis = 1;
  scatter.y_axis = 0;
  scatter.log_y = true;
  std::cout << cluster::ascii_scatter(frame, scatter);
  return ingest.degraded() ? kExitDegraded : kExitOk;
}

// ---------------------------------------------------------------------------
// stat: live daemon summary over the NDJSON protocol

double json_number(const obs::JsonValue& object, const char* name) {
  return object.has(name) ? object.at(name).number : 0.0;
}

std::string fmt_ns(double ns) {
  char buffer[32];
  if (ns >= 1e9)
    std::snprintf(buffer, sizeof buffer, "%.2fs", ns / 1e9);
  else if (ns >= 1e6)
    std::snprintf(buffer, sizeof buffer, "%.1fms", ns / 1e6);
  else
    std::snprintf(buffer, sizeof buffer, "%.0fus", ns / 1e3);
  return buffer;
}

/// Total requests across the per-method latency section (the qps base).
double latency_total(const obs::JsonValue& stats) {
  if (!stats.has("latency")) return 0.0;
  double total = 0.0;
  for (const auto& [method, hist] : stats.at("latency").object)
    total += json_number(hist, "count");
  return total;
}

/// One rendered summary. `qps` < 0 means "no rate yet" (first sample).
void print_stat(const obs::JsonValue& stats, double qps) {
  const double uptime_s = json_number(stats, "uptime_ns") / 1e9;
  std::printf("perftrackd up %.1fs  studies %.0f (%.0f resident)%s\n",
              uptime_s, json_number(stats, "studies"),
              json_number(stats, "resident_sessions"),
              stats.has("draining") && stats.at("draining").boolean
                  ? "  DRAINING"
                  : "");
  std::printf("requests: appends %.0f  retracks %.0f  evictions %.0f",
              json_number(stats, "appends"),
              json_number(stats, "retracks"),
              json_number(stats, "evictions"));
  if (qps >= 0.0)
    std::printf("  qps %.1f", qps);
  std::printf("\n");
  if (stats.has("queue")) {
    const obs::JsonValue& queue = stats.at("queue");
    std::printf("queue: %.0f/%.0f in flight  %.0f admitted  %.0f rejected\n",
                json_number(queue, "in_flight"),
                json_number(queue, "capacity"),
                json_number(queue, "admitted"),
                json_number(queue, "rejected"));
  }
  if (stats.has("latency") && !stats.at("latency").object.empty()) {
    std::printf("%-20s %10s %10s %10s %10s\n", "method", "count", "p50",
                "p99", "max");
    for (const auto& [method, hist] : stats.at("latency").object)
      std::printf("%-20s %10.0f %10s %10s %10s\n", method.c_str(),
                  json_number(hist, "count"),
                  fmt_ns(json_number(hist, "p50_ns")).c_str(),
                  fmt_ns(json_number(hist, "p99_ns")).c_str(),
                  fmt_ns(json_number(hist, "max_ns")).c_str());
  }
  std::fflush(stdout);
}

int cmd_stat(const Options& options) {
  if (options.inputs.size() != 1) {
    std::fprintf(stderr, "stat needs the daemon's socket path\n");
    return kExitUsage;
  }
  serve::NdjsonClient client(options.inputs[0]);

  double prev_total = -1.0;
  std::size_t shown = 0;
  while (true) {
    serve::ClientResponse response = client.call("stats");
    if (!response.ok)
      throw Error("stats failed: " + response.error_code + ": " +
                  response.error_message);
    const double total = latency_total(response.result);
    // One-shot: rate since the daemon started; watch: rate over the
    // refresh interval.
    double qps = -1.0;
    if (prev_total >= 0.0) {
      qps = (total - prev_total) /
            static_cast<double>(options.watch_interval_sec);
    } else if (!options.watch) {
      const double uptime_s =
          json_number(response.result, "uptime_ns") / 1e9;
      if (uptime_s > 0.0) qps = total / uptime_s;
    }
    prev_total = total;

    if (options.watch && shown > 0) std::printf("\n");
    print_stat(response.result, qps);

    if (!options.watch) return kExitOk;
    ++shown;
    if (options.watch_count != 0 && shown >= options.watch_count)
      return kExitOk;
    std::this_thread::sleep_for(
        std::chrono::seconds(options.watch_interval_sec));
  }
}

// ---------------------------------------------------------------------------
// connect: scriptable protocol client (one-shot --call, or stdin REPL)

serve::RetryPolicy retry_policy(const Options& options) {
  serve::RetryPolicy retry;
  retry.attempts = static_cast<int>(options.retries);
  retry.deadline_ms = options.deadline_ms;
  return retry;
}

/// One request, one response line on stdout. The response is printed
/// verbatim (byte-identical to the wire), so the output composes with jq
/// and with the daemon's own NDJSON tooling. Exit code 1 when the daemon
/// answered with a protocol error.
int connect_call(const Options& options, serve::NdjsonClient& client) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("method").value(options.call_method);
  if (!options.call_study.empty())
    json.key("study").value(options.call_study);
  json.end_object();
  std::string line = json.str();
  if (!options.call_params.empty())
    line.insert(line.size() - 1, ",\"params\":" + options.call_params);
  const std::string response = client.roundtrip(line);
  std::printf("%s\n", response.c_str());
  return serve::parse_client_response(response).ok ? kExitOk : kExitInternal;
}

/// REPL: every non-blank stdin line is sent as-is; every response line is
/// printed as-is. The exit code reports whether any request failed.
int connect_repl(const Options& options, serve::NdjsonClient& client) {
  (void)options;
  std::string line;
  bool any_error = false;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const std::string response = client.roundtrip(line);
    std::printf("%s\n", response.c_str());
    std::fflush(stdout);
    if (!serve::parse_client_response(response).ok) any_error = true;
  }
  return any_error ? kExitInternal : kExitOk;
}

int cmd_connect(const Options& options) {
  if (options.inputs.size() != 1) {
    std::fprintf(stderr,
                 "connect needs one endpoint (socket path or "
                 "tcp://HOST:PORT)\n");
    return kExitUsage;
  }
  if (options.call_method.empty() &&
      (!options.call_study.empty() || !options.call_params.empty())) {
    std::fprintf(stderr, "--study/--params need --call METHOD\n");
    return kExitUsage;
  }
  serve::NdjsonClient client(options.inputs[0], retry_policy(options));
  return options.call_method.empty() ? connect_repl(options, client)
                                     : connect_call(options, client);
}

}  // namespace

// Write the requested telemetry sinks; the per-stage summary goes to
// stderr so the tracking output on stdout stays scriptable.
void emit_telemetry(const Options& options, int argc, char** argv) {
  obs::RunReport report = obs::collect();
  for (int i = 0; i < argc; ++i)
    report.label += (i ? " " : "") + std::string(argv[i]);
  if (!options.profile_path.empty()) {
    obs::save_report_json(options.profile_path, report);
    std::fprintf(stderr, "profile written to %s\n",
                 options.profile_path.c_str());
  }
  if (!options.trace_events_path.empty()) {
    obs::save_trace_events(options.trace_events_path);
    std::fprintf(stderr, "trace events written to %s\n",
                 options.trace_events_path.c_str());
  }
  std::fputs(obs::summary_table(report).c_str(), stderr);
}

int main(int argc, char** argv) {
  Options options;
  cli::OptionTable table = option_table(options);
  try {
    if (argc < 2) return usage(table);
    options.command = argv[1];
    table.parse(argc, argv, 2, options.inputs);

    const bool profiling =
        !options.profile_path.empty() || !options.trace_events_path.empty();
    if (profiling) obs::set_enabled(true);

    int rc = kExitUsage;
    if (options.command == "track") rc = cmd_track(options);
    else if (options.command == "evolve") rc = cmd_evolve(options);
    else if (options.command == "inspect") rc = cmd_inspect(options);
    else if (options.command == "stat") rc = cmd_stat(options);
    else if (options.command == "connect") rc = cmd_connect(options);
    else return usage(table);

    // A degraded success still produced a full result: emit its telemetry
    // so the run report records the gaps and diagnostics.
    if (profiling && (rc == kExitOk || rc == kExitDegraded))
      emit_telemetry(options, argc, argv);
    return rc;
  } catch (const cli::UsageError& error) {
    std::fprintf(stderr, "perftrack: %s\n", error.what());
    return usage(table);
  } catch (const ParseError& error) {
    std::fprintf(stderr, "perftrack: parse error: %s\n", error.what());
    return kExitParse;
  } catch (const IoError& error) {
    std::fprintf(stderr, "perftrack: io error: %s\n", error.what());
    return kExitIo;
  } catch (const Error& error) {
    std::fprintf(stderr, "perftrack: %s\n", error.what());
    return kExitInternal;
  }
}
