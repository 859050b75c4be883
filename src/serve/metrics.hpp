#pragma once
// perftrackd's live metrics: the serve-layer instrumentation over
// obs::MetricsRegistry.
//
// Every request is measured end to end and decomposed into phases:
//
//   parse -> lock_wait -> handler -> write
//
// and recorded into per-method histograms plus request/error counters.
// Recording is lock-free (see obs/metrics.hpp); per-method handles
// (MethodMetrics) are resolved once — the service binds them into its
// endpoint table at construction, the server memoises them per
// connection — so the hot path is a few relaxed atomics with no string
// hashing at all, cheap enough to leave on in production
// (bench/perf_serve pins the ping-flood overhead at < 1%).
//
// Metric catalogue (docs/OBSERVABILITY.md is the reference):
//
//   perftrackd_requests_total{method=}   counter  requests dispatched
//   perftrackd_errors_total{code=}       counter  error responses by code
//   perftrackd_request_ns{method=}       histogram  end-to-end latency
//                                        (read off the wire -> response
//                                        written), recorded by the server
//   perftrackd_handler_ns{method=}       histogram  handler execution
//                                        alone, recorded by the service
//                                        (fills even without a transport)
//   perftrackd_phase_ns{phase=}          histogram  parse / lock_wait /
//                                        write breakdown
//   perftrackd_queue_depth / _capacity   gauge  open connections / their
//                                        cap (--queue)
//   perftrackd_overloaded_total          counter  connections refused at
//                                        the cap
//   perftrackd_studies / _resident_sessions  gauge  registry occupancy
//   perftrackd_uptime_seconds            gauge  since service start
//
// Lock-wait is accumulated into a thread-local request context that
// TrackingService::handle() resets on entry, so the server (and the
// access log) can report how much of a request went to study-lock
// acquisition without threading a context object through every handler.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perftrack::serve {

class ServeMetrics {
public:
  /// `enabled` false turns every record_* into a no-op (the registry
  /// still exists and samples as all-zero) — the metrics-off baseline
  /// bench/perf_serve compares against.
  explicit ServeMetrics(bool enabled = true);
  ServeMetrics(const ServeMetrics&) = delete;
  ServeMetrics& operator=(const ServeMetrics&) = delete;

  bool enabled() const { return enabled_; }
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

  /// Pre-resolved handles of one method's label slots. Stable for the
  /// registry's lifetime; resolving once and recording through the
  /// handle keeps the per-request hot path free of string hashing (the
  /// service resolves per endpoint at construction, the server memoises
  /// per connection).
  struct MethodMetrics {
    obs::Counter* requests;
    obs::Histogram* request_ns;
    obs::Histogram* handler_ns;
  };

  /// Resolve `method` to its handle. Unknown methods share the "other"
  /// slot and unparseable lines the "invalid" slot; never null.
  const MethodMetrics* method_metrics(const std::string& method) const;

  /// Request dispatched (any outcome), by pre-resolved handle.
  void count_request(const MethodMetrics* slot) {
    if (enabled_) slot->requests->add();
  }
  /// Convenience: resolve-and-count (cold paths only).
  void count_request(const std::string& method) {
    count_request(method_metrics(method));
  }

  /// Error response produced, by wire error code ("bad-request", ...).
  void count_error(std::string_view code);

  /// End-to-end latency (server transport loop: line read -> response
  /// bytes handed to the sink).
  void record_request_ns(const MethodMetrics* slot, std::uint64_t ns) {
    if (enabled_) slot->request_ns->record(ns);
  }
  void record_request_ns(const std::string& method, std::uint64_t ns) {
    record_request_ns(method_metrics(method), ns);
  }

  /// Handler execution alone (TrackingService::handle).
  void record_handler_ns(const MethodMetrics* slot, std::uint64_t ns) {
    if (enabled_) slot->handler_ns->record(ns);
  }
  void record_handler_ns(const std::string& method, std::uint64_t ns) {
    record_handler_ns(method_metrics(method), ns);
  }

  enum class Phase { Parse, LockWait, Write };
  void record_phase_ns(Phase phase, std::uint64_t ns);

  /// Study-lock acquisition wait: recorded into the phase histogram and
  /// accumulated into this thread's request context.
  void record_lock_wait_ns(std::uint64_t ns);

  /// Reset this thread's per-request context (handle() calls this on
  /// entry) / read the lock-wait it accumulated since.
  static void reset_request_context();
  static std::uint64_t context_lock_wait_ns();

  /// Snapshot plus the family help texts, for the exporters.
  obs::MetricsSnapshot snapshot() const { return registry_.snapshot(); }

  /// Per-method latency distributions for the `stats` surface, skipping
  /// methods that never ran. End-to-end when the transport recorded it,
  /// otherwise handler-only (direct service callers have no wire time).
  std::vector<std::pair<std::string, obs::HistogramSnapshot>>
  per_method_latency() const;

private:
  bool enabled_;
  obs::MetricsRegistry registry_;
  std::unordered_map<std::string, MethodMetrics> methods_;
  obs::Histogram* phase_parse_;
  obs::Histogram* phase_lock_wait_;
  obs::Histogram* phase_write_;
};

}  // namespace perftrack::serve
