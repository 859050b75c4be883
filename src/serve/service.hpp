#pragma once
// The tracking service: protocol requests against the study registry.
//
// TrackingService is the transport-free core of perftrackd: one handle()
// call maps one parsed Request to one Response, and is safe to call from
// any number of threads concurrently. The server layer (serve/server.hpp)
// puts sockets in front of it, one thread per connection; tests and
// benches call it directly.
//
// Locking discipline (see registry.hpp): read methods — regions, trends,
// coverage, stats — take the study lock shared and serve from the cached
// TrackingResult, so a tracked study answers reads concurrently. A read
// that finds the study stale (appends since the last retrack) upgrades to
// the exclusive lock and retracks first; append/retrack/evict/open/close
// are exclusive. Results are bit-identical to a batch perftrack run over
// the same traces — the service reuses TrackingSession, whose equivalence
// guarantee carries over unchanged.
//
// Observability: every request runs under a "serve_request" span with a
// per-endpoint child span ("serve_regions", ...), so the JSON run report
// carries per-endpoint request counts and wall-time (plus min/max latency)
// for free, next to the serve_evictions/serve_rebuilds counters.
// Independently of the run-report telemetry, the service owns a live
// metrics plane (serve/metrics.hpp): per-method latency histograms,
// request/error counters and occupancy gauges, sampled at any time via
// the `metrics`/`stats`/`health` protocol methods or the HTTP /metrics
// endpoint (serve/metrics_http.hpp), and always recording unless
// ServiceConfig::metrics turns it off.
// Trace ingestion flows through the diagnostics layer: strict mode maps
// parse failures to typed parse-failure errors, lenient mode degrades a
// failing experiment into a tracked gap under the configured error budget,
// exactly like the perftrack CLI.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/render_cache.hpp"

namespace perftrack::serve {

/// Open-connection counters of a socket transport, injected by the server
/// layer so the `stats` endpoint (its `queue` block) can report
/// backpressure without the service owning the connections.
struct QueueStats {
  std::size_t capacity = 0;    ///< open-connection cap (--queue)
  std::size_t in_flight = 0;   ///< open connections
  std::uint64_t admitted = 0;  ///< connections accepted
  std::uint64_t rejected = 0;  ///< connections refused as `overloaded`
};

struct ServiceConfig {
  /// Base session configuration; open_study parameters override per study.
  tracking::SessionConfig session;

  /// Lenient-mode error budget per ingested trace file.
  std::size_t max_errors = 100;

  /// Evict the heavy state of studies idle longer than this (0 = never).
  std::uint64_t idle_ttl_ns = 0;

  /// Keep at most this many studies' sessions resident (0 = unbounded);
  /// the least recently used are evicted first.
  std::size_t max_resident = 0;

  /// Record live metrics (histograms/counters/gauges). Off turns every
  /// recording call into a no-op; `metrics` then samples all-zero.
  bool metrics = true;

  /// Durability plane (journal.hpp): per-study write-ahead journals under
  /// journal.directory, recovered on construction. An empty directory
  /// keeps the registry purely in-memory (the pre-state-dir behaviour).
  JournalConfig journal;

  /// Total rendered responses kept by the versioned render cache
  /// (0 disables it; reads then always render fresh).
  std::size_t render_cache_capacity = 4096;
};

class TrackingService {
public:
  explicit TrackingService(ServiceConfig config = {});

  /// Handle one request; never throws — every failure becomes a typed
  /// error response. Thread-safe.
  Response handle(const Request& request);

  /// Convenience: parse one NDJSON line and handle it.
  Response handle_line(const std::string& line);

  /// Set by a "shutdown" request; the server drains and exits when it
  /// sees this.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Run the idle-eviction policy now (also exposed as the "sweep"
  /// method). Returns the number of sessions evicted.
  std::size_t sweep();

  /// Fsync every study's unsynced journal records (the graceful-drain /
  /// SIGTERM path; perftrackd calls it after the serve loop returns).
  /// Failures are logged, not thrown. No-op without a state dir.
  void flush_journals();

  /// Installed by the socket transports so `stats` can report
  /// open-connection backpressure.
  void set_queue_stats(std::function<QueueStats()> fn) {
    queue_stats_ = std::move(fn);
  }

  /// The live metrics plane. The server records transport-side phases
  /// through it; the HTTP endpoint samples it.
  ServeMetrics& metrics() { return metrics_; }

  /// Refresh the occupancy gauges (studies, resident sessions, queue,
  /// uptime, render-cache totals) and render the registry in Prometheus text
  /// exposition format — the body of `GET /metrics`.
  std::string render_prometheus_metrics();

  /// Same refresh, rendered as the compact JSON snapshot — the result of
  /// the `metrics` protocol method (and `GET /metrics.json`).
  std::string render_json_metrics();

  const ServiceConfig& config() const { return config_; }
  StudyRegistry& registry() { return registry_; }
  RenderCache& render_cache() { return render_cache_; }

  /// Wire names of every supported method, sorted (the `hello` surface).
  std::vector<std::string> method_names() const;

private:
  std::string do_ping(const Request& request);
  std::string do_hello(const Request& request);
  std::string do_open_study(const Request& request);
  std::string do_close_study(const Request& request);
  std::string do_list_studies(const Request& request);
  std::string do_append_experiment(const Request& request);
  std::string do_append_gap(const Request& request);
  std::string do_retrack(const Request& request);
  std::string do_regions(const Request& request);
  std::string do_trends(const Request& request);
  std::string do_report(const Request& request);
  std::string do_coverage(const Request& request);
  std::string do_stats(const Request& request);
  std::string do_metrics(const Request& request);
  std::string do_health(const Request& request);
  std::string do_evict(const Request& request);
  std::string do_sweep(const Request& request);
  std::string do_shutdown(const Request& request);

  std::shared_ptr<StudyState> study_of(const Request& request) const;

  /// Serve-side read path: shared lock when the study is tracked,
  /// exclusive retrack first when it is stale. When `generation` is
  /// non-null it receives the study generation observed under the lock —
  /// the version the returned result corresponds to.
  std::shared_ptr<const tracking::TrackingResult> tracked_result(
      StudyState& study, std::uint64_t* generation = nullptr);

  /// Read path shared by regions/trends/report: serve `shape` for
  /// `study` from the render cache when its bytes are current, render
  /// via `render` and cache otherwise.
  std::string cached_render(
      StudyState& study, const std::string& name, const std::string& shape,
      const std::function<std::string(const tracking::TrackingResult&)>&
          render);

  /// Retrack under an already-held exclusive lock.
  void retrack_locked(StudyState& study);

  /// Set the occupancy/queue/render-cache gauges from current state.
  void refresh_gauges();

  /// Boot-time recovery: scan the state dir and repopulate the registry
  /// from every surviving journal. Called from the constructor.
  void recover_state();

  /// Journal `entry` for `study` before it is applied in memory; maps a
  /// journal failure to a typed io-failure response. No-op when the study
  /// has no journal.
  void journal_append(StudyState& study, const AppendEntry& entry);

  /// Opportunistic compaction after a successful append (failures are
  /// diagnostics — the uncompacted journal is still correct).
  void maybe_compact(const std::string& name, StudyState& study);

  bool durable() const { return config_.journal.enabled(); }

  /// One dispatch-table entry: handler, its telemetry span literal, and
  /// the pre-resolved metrics handle — one map find covers all three.
  struct Endpoint {
    const char* span;
    std::string (TrackingService::*fn)(const Request&);
    const ServeMetrics::MethodMetrics* metrics;
  };

  ServiceConfig config_;
  StudyRegistry registry_;
  std::atomic<bool> shutdown_{false};
  std::function<QueueStats()> queue_stats_;
  ServeMetrics metrics_;
  RenderCache render_cache_;
  std::map<std::string, Endpoint, std::less<>> endpoints_;
  std::uint64_t start_ns_;  ///< telemetry-clock birth time (uptime base)

  // Recovery + journal-health counters (stats/metrics surface them).
  std::atomic<std::uint64_t> journal_recovered_{0};
  std::atomic<std::uint64_t> journal_truncated_{0};
  std::atomic<std::uint64_t> journal_quarantined_{0};
  std::atomic<std::uint64_t> journal_errors_{0};
  std::atomic<std::uint64_t> journal_deduped_{0};
};

}  // namespace perftrack::serve
