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

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "align/nw.hpp"
#include "cli.hpp"
#include "common/error.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "serve/client.hpp"
#include "serve/metrics_http.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/shard.hpp"
#include "sim/studies.hpp"
#include "store/frame_store.hpp"

using namespace perftrack;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;

struct Options {
  bool stdio = false;
  std::string socket_path;
  std::string listen;  ///< TCP HOST:PORT ("" = no TCP listener)
  bool front = false;
  std::size_t shards = 2;
  std::string shard_dir;
  double eps = 0.025;
  std::size_t min_pts = 5;
  double min_cluster_frac = 0.005;
  align::AlignmentEngine align_engine = align::AlignmentEngine::kAuto;
  bool lenient = false;
  bool no_cache = false;
  std::size_t max_errors = 100;
  std::size_t idle_ttl_sec = 0;
  std::size_t max_sessions = 0;
  std::size_t sweep_interval_ms = 0;
  std::string state_dir;
  serve::FsyncMode fsync = serve::FsyncMode::Batch;
  std::size_t journal_compact = 4096;
  std::string cache_dir;
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
      "--front --shards N (--socket PATH | --listen HOST:PORT) [options]",
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
  table.add_switch("--front",
                   "shard-by-study front: spawn worker daemons and route "
                   "requests by study name (see --shards)",
                   [o] { o->front = true; });
  table.add("--shards", "N", "worker daemons behind --front (2)",
            [o](const std::string& v) {
              o->shards = cli::parse_count("--shards", v, 1);
            });
  table.add("--shard-dir", "DIR",
            "directory for the workers' AF_UNIX sockets (default: under "
            "--state-dir, or /tmp/perftrackd-<pid>-shards)",
            [o](const std::string& v) { o->shard_dir = v; });
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
  table.add("--align-engine", "ENGINE",
            "pairwise alignment engine for every study: auto | full | "
            "banded (auto; byte-identical output for every choice)",
            [o](const std::string& v) {
              auto engine = align::parse_alignment_engine(v);
              if (!engine)
                throw cli::UsageError(
                    "invalid value for --align-engine: '" + v +
                    "' (expected auto, full or banded)");
              o->align_engine = *engine;
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
  table.add("--cache-dir", "DIR",
            "frame cache for every study (default: $PERFTRACK_CACHE)",
            [o](const std::string& v) { o->cache_dir = v; });
  table.add_switch("--no-cache",
                   "disable the frame cache even if PERFTRACK_CACHE is set",
                   [o] { o->no_cache = true; });
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
  config.session.tracking.alignment_engine = options.align_engine;
  config.session.resilience.lenient = options.lenient;
  if (!options.no_cache)
    config.session.cache.directory =
        options.cache_dir.empty() ? store::FrameStore::environment_directory()
                                  : options.cache_dir;
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

/// One worker connection of the shard front: NdjsonClient is
/// one-request-at-a-time, so the mutex serializes the front's threads
/// over it. Reconnects (daemon restart) are the client's retry policy.
struct ShardConn {
  std::mutex mutex;
  std::unique_ptr<serve::NdjsonClient> client;
};

/// Spawn one worker daemon re-execing this binary with the per-shard
/// socket/state paths plus every study-affecting option passed through.
/// Returns the child pid.
pid_t spawn_worker(const Options& options, const std::string& socket_path,
                   const std::string& state_dir) {
  std::vector<std::string> args = {
      "/proc/self/exe", "--socket", socket_path,
      "--eps", std::to_string(options.eps),
      "--min-pts", std::to_string(options.min_pts),
      "--min-cluster-frac", std::to_string(options.min_cluster_frac),
      "--max-errors", std::to_string(options.max_errors),
      "--idle-ttl", std::to_string(options.idle_ttl_sec),
      "--max-sessions", std::to_string(options.max_sessions),
      "--sweep-interval", std::to_string(options.sweep_interval_ms),
      "--queue", std::to_string(options.server.queue_capacity),
      "--max-line-bytes", std::to_string(options.server.max_line_bytes),
      "--journal-compact", std::to_string(options.journal_compact),
      "--fsync", std::string(serve::fsync_mode_name(options.fsync)),
  };
  if (options.lenient) args.push_back("--lenient");
  if (options.no_cache) args.push_back("--no-cache");
  if (!options.cache_dir.empty()) {
    args.push_back("--cache-dir");
    args.push_back(options.cache_dir);
  }
  if (!state_dir.empty()) {
    args.push_back("--state-dir");
    args.push_back(state_dir);
  }
  if (options.align_engine != align::AlignmentEngine::kAuto) {
    args.push_back("--align-engine");
    args.push_back(align::to_string(options.align_engine));
  }
  if (options.no_metrics) args.push_back("--no-metrics");

  const pid_t pid = ::fork();
  if (pid < 0) throw Error(std::string("fork(): ") + std::strerror(errno));
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "perftrackd: execv(%s): %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(kExitInternal);
  }
  return pid;
}

/// --front: spawn the worker fleet, build a ShardFront over NdjsonClient
/// backends, serve it on the requested transport, then shut the workers
/// down and reap them.
int run_front(const Options& options,
              const std::function<int(serve::Dispatcher&)>& serve_with) {
  std::string shard_dir = options.shard_dir;
  if (shard_dir.empty())
    shard_dir = options.state_dir.empty()
                    ? "/tmp/perftrackd-" + std::to_string(::getpid()) +
                          "-shards"
                    : options.state_dir + "/shards";
  // mkdir -p: the default lives under --state-dir, which may not exist
  // yet on a first run.
  for (std::size_t slash = shard_dir.find('/', 1);;
       slash = shard_dir.find('/', slash + 1)) {
    const std::string prefix =
        slash == std::string::npos ? shard_dir : shard_dir.substr(0, slash);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0700) != 0 &&
        errno != EEXIST)
      throw Error("cannot create shard dir " + prefix + ": " +
                  std::strerror(errno));
    if (slash == std::string::npos) break;
  }

  std::vector<pid_t> pids;
  std::vector<std::string> sockets;
  for (std::size_t i = 0; i < options.shards; ++i) {
    const std::string socket_path =
        shard_dir + "/shard-" + std::to_string(i) + ".sock";
    const std::string state_dir =
        options.state_dir.empty()
            ? ""
            : options.state_dir + "/shard-" + std::to_string(i);
    sockets.push_back(socket_path);
    pids.push_back(spawn_worker(options, socket_path, state_dir));
  }

  int rc = kExitInternal;
  {
    // Generous connect retries: the workers are booting (and possibly
    // replaying journals) while we connect. Modest roundtrip retries: a
    // worker that died mid-serve should fail requests, not hang them.
    serve::RetryPolicy retry;
    retry.attempts = 50;
    retry.deadline_ms = 2000;
    retry.backoff_ms = 20;
    retry.backoff_max_ms = 200;

    std::vector<std::shared_ptr<ShardConn>> conns;
    std::vector<serve::ShardFront::Backend> backends;
    for (const std::string& socket_path : sockets) {
      auto conn = std::make_shared<ShardConn>();
      conn->client =
          std::make_unique<serve::NdjsonClient>(socket_path, retry);
      conns.push_back(conn);
      backends.push_back([conn](const std::string& line) {
        std::lock_guard<std::mutex> lock(conn->mutex);
        return conn->client->roundtrip(line);
      });
    }

    serve::ShardFront front(std::move(backends), !options.no_metrics);
    std::fprintf(stderr, "front: %zu shards under %s\n", options.shards,
                 shard_dir.c_str());
    rc = serve_with(front);

    // The protocol `shutdown` already drained the workers through the
    // front; the signal path did not. Either way, tell every worker to
    // drain now — a second shutdown is idempotent — and reap them.
    for (auto& conn : conns) {
      std::lock_guard<std::mutex> lock(conn->mutex);
      try {
        conn->client->roundtrip("{\"method\":\"shutdown\"}");
      } catch (const Error&) {
        // Already gone — that is what we wanted.
      }
    }
  }
  for (pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  return rc;
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
    if (options.front &&
        (!options.metrics_socket.empty() || options.metrics_port >= 0))
      throw cli::UsageError(
          "--front has no HTTP metrics listener; scrape the workers' "
          "(each worker exposes the full metrics plane)");

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

    auto serve_with = [&](serve::Dispatcher& dispatcher) {
      if (options.stdio)
        return serve::serve_stream(dispatcher, std::cin, std::cout,
                                   options.server);
      if (!options.listen.empty())
        return serve::serve_tcp(dispatcher, listen_host, listen_port,
                                options.server, [](std::uint16_t port) {
                                  // Print the resolved port so scripts
                                  // using --listen HOST:0 can connect.
                                  std::fprintf(stderr, "listen port %u\n",
                                               port);
                                });
      return serve::serve_unix_socket(dispatcher, options.socket_path,
                                      options.server);
    };

    if (options.front) {
      const int rc = run_front(options, serve_with);
      emit_telemetry(options);
      return rc == 0 ? kExitOk : kExitInternal;
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

    int rc = serve_with(service);
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
