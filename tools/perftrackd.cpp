// perftrackd — long-running tracking service over the NDJSON protocol.
//
// The paper's workflow is interactive: an analyst appends experiments one
// at a time and re-examines the tracked regions. perftrackd keeps the
// sessions warm between questions — one TrackingSession per named study,
// each connection served on its own thread, one request at a time:
//
//   perftrackd --socket /tmp/perftrack.sock     # daemon on a unix socket
//   perftrackd --stdio                          # one connection on stdio
//
// Durability (docs/SERVING.md): --state-dir DIR journals every study
// mutation to a per-study write-ahead log before applying it, and
// recovers all studies from the journals at boot — a crashed daemon
// restarted on the same state dir answers regions/trends byte-identically
// to one that never crashed. --fsync picks the durability/latency
// trade-off; torn tails are truncated and unreadable journals quarantined
// with diagnostics rather than refusing to boot.
//
// Observability (docs/OBSERVABILITY.md): the daemon always records live
// per-method latency histograms and counters (--no-metrics turns them
// off), sampled via the `stats`/`metrics`/`health` protocol methods,
// `perftrack stat`, or a dedicated HTTP scrape listener
// (--metrics-socket PATH / --metrics-port N serving GET /metrics).
// --access-log FILE writes one NDJSON line per request with the
// parse/lock/handler/write breakdown; --slow-ms N additionally
// dumps the span tree of any request slower than N ms.
//
// Requests are newline-delimited JSON (docs/SERVING.md):
//
//   {"id":1,"method":"open_study","study":"wrf"}
//   {"id":2,"method":"append_experiment","study":"wrf",
//    "params":{"path":"wrf_128.ptt"}}
//   {"id":3,"method":"retrack","study":"wrf"}
//   {"id":4,"method":"regions","study":"wrf"}
//
// Responses for regions/trends/coverage are byte-identical to what a
// batch `perftrack track` run over the same traces would report. SIGTERM,
// SIGINT, EOF (--stdio) and the `shutdown` method all drain gracefully:
// requests already read complete and flush before the process exits.
//
// Exit codes: 0 clean shutdown, 1 internal error, 2 usage.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/error.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "serve/metrics_http.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/studies.hpp"

using namespace perftrack;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;

struct Options {
  bool stdio = false;
  std::string socket_path;
  std::string listen;  ///< TCP HOST:PORT ("" = no TCP listener)
  double eps = 0.025;
  std::size_t min_pts = 5;
  double min_cluster_frac = 0.005;
  bool lenient = false;
  std::size_t max_errors = 100;
  std::size_t idle_ttl_sec = 0;
  std::size_t max_sessions = 0;
  std::size_t sweep_interval_ms = 0;
  std::string state_dir;
  serve::FsyncMode fsync = serve::FsyncMode::Batch;
  std::size_t journal_compact = 4096;
  std::string profile_path;
  std::string trace_events_path;
  std::string metrics_socket;
  long metrics_port = -1;  ///< -1 = off; 0 = ephemeral
  std::string access_log_path;
  bool no_metrics = false;
  serve::ServerOptions server;
};

cli::OptionTable option_table(Options& options) {
  cli::OptionTable table;
  table.tool = "perftrackd";
  table.commands = {
      "--socket PATH [options]",
      "--listen HOST:PORT [options]",
      "--stdio [options]",
  };
  table.footer =
      "exit codes: 0 clean shutdown, 1 error, 2 usage\n"
      "protocol:   newline-delimited JSON, see docs/SERVING.md\n";
  auto* o = &options;
  table.add("--socket", "PATH", "listen on an AF_UNIX stream socket",
            [o](const std::string& v) { o->socket_path = v; });
  table.add("--listen", "HOST:PORT",
            "listen on a TCP socket (numeric IPv4; port 0 = ephemeral)",
            [o](const std::string& v) { o->listen = v; });
  table.add_switch("--stdio",
                   "serve one connection on stdin/stdout (tests, scripts)",
                   [o] { o->stdio = true; });
  table.add("--queue", "N",
            "max open connections; one more is refused as overloaded (64)",
            [o](const std::string& v) {
              o->server.queue_capacity = cli::parse_count("--queue", v, 1);
            });
  table.add("--idle-ttl", "SEC",
            "evict session state of studies idle this long (0 = never)",
            [o](const std::string& v) {
              o->idle_ttl_sec = cli::parse_count("--idle-ttl", v);
            });
  table.add("--max-sessions", "N",
            "keep at most N resident sessions, LRU-evict beyond (0 = all)",
            [o](const std::string& v) {
              o->max_sessions = cli::parse_count("--max-sessions", v);
            });
  table.add("--sweep-interval", "MS",
            "period of the idle-eviction sweeper (0 = only on demand)",
            [o](const std::string& v) {
              o->sweep_interval_ms = cli::parse_count("--sweep-interval", v);
            });
  table.add("--eps", "X", "default DBSCAN radius for new studies (0.025)",
            [o](const std::string& v) {
              o->eps = cli::parse_double("--eps", v);
              if (o->eps <= 0.0)
                throw cli::UsageError("invalid value for --eps: '" + v +
                                      "' (must be positive)");
            });
  table.add("--min-pts", "N", "default DBSCAN core threshold (5)",
            [o](const std::string& v) {
              o->min_pts = cli::parse_count("--min-pts", v, 1);
            });
  table.add("--min-cluster-frac", "F",
            "default minimum cluster time share (0.005)",
            [o](const std::string& v) {
              o->min_cluster_frac =
                  cli::parse_double("--min-cluster-frac", v);
              if (o->min_cluster_frac < 0.0 || o->min_cluster_frac >= 1.0)
                throw cli::UsageError(
                    "invalid value for --min-cluster-frac: '" + v +
                    "' (must be in [0, 1))");
            });
  table.add_switch("--strict",
                   "abort ingestion on the first malformed record (default)",
                   [o] { o->lenient = false; });
  table.add_switch("--lenient",
                   "default new studies to lenient ingestion (failed "
                   "experiments become gaps)",
                   [o] { o->lenient = true; });
  table.add("--max-errors", "N",
            "lenient-mode error budget per ingested file (100)",
            [o](const std::string& v) {
              o->max_errors = cli::parse_count("--max-errors", v);
            });
  table.add("--state-dir", "DIR",
            "durable study state: per-study write-ahead journals, "
            "recovered at boot (default: in-memory only)",
            [o](const std::string& v) { o->state_dir = v; });
  table.add("--fsync", "MODE",
            "journal durability: always | batch | off (batch)",
            [o](const std::string& v) {
              try {
                o->fsync = serve::fsync_mode_from_name(v);
              } catch (const Error& error) {
                throw cli::UsageError(error.what());
              }
            });
  table.add("--journal-compact", "N",
            "compact a study's journal every N appends (4096; 0 = never)",
            [o](const std::string& v) {
              o->journal_compact = cli::parse_count("--journal-compact", v);
            });
  table.add("--max-line-bytes", "N",
            "reject request lines longer than N bytes (8388608; 0 = no cap)",
            [o](const std::string& v) {
              o->server.max_line_bytes =
                  cli::parse_count("--max-line-bytes", v);
            });
  table.add_switch("--no-cache", "accepted for old scripts; has no effect",
                   [] {});
  table.add("--profile", "FILE",
            "write a JSON run report (per-endpoint spans) at shutdown",
            [o](const std::string& v) { o->profile_path = v; });
  table.add("--trace-events", "FILE",
            "write Chrome trace_event JSON at shutdown",
            [o](const std::string& v) { o->trace_events_path = v; });
  table.add("--metrics-socket", "PATH",
            "serve GET /metrics on an AF_UNIX HTTP listener",
            [o](const std::string& v) { o->metrics_socket = v; });
  table.add("--metrics-port", "N",
            "serve GET /metrics on 127.0.0.1:N (0 = ephemeral port)",
            [o](const std::string& v) {
              o->metrics_port = static_cast<long>(
                  cli::parse_count("--metrics-port", v));
              if (o->metrics_port > 65535)
                throw cli::UsageError("invalid value for --metrics-port: '" +
                                      v + "' (max 65535)");
            });
  table.add("--access-log", "FILE",
            "append one NDJSON line per request (phase breakdown)",
            [o](const std::string& v) { o->access_log_path = v; });
  table.add("--slow-ms", "N",
            "dump the span tree of requests slower than N ms (0 = all)",
            [o](const std::string& v) {
              o->server.slow_ns = static_cast<std::uint64_t>(
                                      cli::parse_count("--slow-ms", v)) *
                                  1000000ull;
            });
  table.add_switch("--no-metrics",
                   "disable live metrics recording (histograms/counters)",
                   [o] { o->no_metrics = true; });
  return table;
}

int usage(const cli::OptionTable& table) {
  std::fputs(table.usage().c_str(), stderr);
  return kExitUsage;
}

serve::ServiceConfig service_config(const Options& options) {
  serve::ServiceConfig config;
  config.session.clustering = sim::default_clustering();
  config.session.clustering.dbscan.eps = options.eps;
  config.session.clustering.dbscan.min_pts = options.min_pts;
  config.session.clustering.min_cluster_time_fraction =
      options.min_cluster_frac;
  config.session.resilience.lenient = options.lenient;
  config.max_errors = options.max_errors;
  config.idle_ttl_ns =
      static_cast<std::uint64_t>(options.idle_ttl_sec) * 1000000000ull;
  config.max_resident = options.max_sessions;
  config.metrics = !options.no_metrics;
  config.journal.directory = options.state_dir;
  config.journal.fsync = options.fsync;
  config.journal.compact_threshold = options.journal_compact;
  return config;
}

/// Split --listen HOST:PORT; throws UsageError on anything malformed.
void parse_listen(const std::string& value, std::string& host,
                  std::uint16_t& port) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == value.size())
    throw cli::UsageError("--listen needs HOST:PORT, got '" + value + "'");
  host = value.substr(0, colon);
  const std::size_t parsed =
      cli::parse_count("--listen", value.substr(colon + 1));
  if (parsed > 65535)
    throw cli::UsageError("--listen port out of range in '" + value + "'");
  port = static_cast<std::uint16_t>(parsed);
}

void emit_telemetry(const Options& options) {
  if (options.profile_path.empty() && options.trace_events_path.empty())
    return;
  obs::RunReport report = obs::collect();
  report.label = "perftrackd";
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

}  // namespace

int main(int argc, char** argv) {
  Options options;
  cli::OptionTable table = option_table(options);
  try {
    std::vector<std::string> positionals;
    table.parse(argc, argv, 1, positionals);
    if (!positionals.empty())
      throw cli::UsageError("unexpected argument '" + positionals.front() +
                            "'");
    const int transports = (options.stdio ? 1 : 0) +
                           (options.socket_path.empty() ? 0 : 1) +
                           (options.listen.empty() ? 0 : 1);
    if (transports != 1)
      throw cli::UsageError(
          "pick exactly one of --stdio, --socket PATH, or --listen "
          "HOST:PORT");
    std::string listen_host;
    std::uint16_t listen_port = 0;
    if (!options.listen.empty())
      parse_listen(options.listen, listen_host, listen_port);

    if (!options.profile_path.empty() || !options.trace_events_path.empty())
      obs::set_enabled(true);
    // The slow-request dump replays telemetry spans; recording must be on
    // for them to exist.
    if (options.server.slow_ns != ~0ull) obs::set_enabled(true);
    options.server.sweep_interval_ms = options.sweep_interval_ms;

    std::ofstream access_log_file;
    std::unique_ptr<serve::AccessLog> access_log;
    if (!options.access_log_path.empty()) {
      access_log_file.open(options.access_log_path, std::ios::app);
      if (!access_log_file)
        throw Error("cannot open access log " + options.access_log_path);
      access_log = std::make_unique<serve::AccessLog>(access_log_file);
      options.server.access_log = access_log.get();
    }

    serve::TrackingService service(service_config(options));

    serve::MetricsHttpServer metrics_http(service);
    if (!options.metrics_socket.empty() &&
        !metrics_http.start_unix(options.metrics_socket))
      return kExitInternal;
    if (options.metrics_port >= 0) {
      if (!metrics_http.start_tcp(
              static_cast<std::uint16_t>(options.metrics_port)))
        return kExitInternal;
      // Print the resolved port so scripts using --metrics-port 0 can
      // find the endpoint.
      std::fprintf(stderr, "metrics port %u\n", metrics_http.port());
    }

    int rc;
    if (options.stdio)
      rc = serve::serve_stream(service, std::cin, std::cout, options.server);
    else if (!options.listen.empty())
      rc = serve::serve_tcp(service, listen_host, listen_port, options.server,
                            [](std::uint16_t port) {
                              // Print the resolved port so scripts using
                              // --listen HOST:0 can connect.
                              std::fprintf(stderr, "listen port %u\n", port);
                            });
    else
      rc = serve::serve_unix_socket(service, options.socket_path,
                                    options.server);
    metrics_http.stop();
    // Part of the graceful drain: batch-mode journals may hold unsynced
    // records; flush them before reporting a clean exit.
    service.flush_journals();
    emit_telemetry(options);
    return rc == 0 ? kExitOk : kExitInternal;
  } catch (const cli::UsageError& error) {
    std::fprintf(stderr, "perftrackd: %s\n", error.what());
    return usage(table);
  } catch (const Error& error) {
    std::fprintf(stderr, "perftrackd: %s\n", error.what());
    return kExitInternal;
  }
}
