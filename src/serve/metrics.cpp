#include "serve/metrics.hpp"

#include "serve/protocol.hpp"

namespace perftrack::serve {

namespace {

/// Every protocol method gets its own label slot, resolved once here so
/// the per-request path never builds label strings. "other" absorbs
/// unknown method names (bounding the registry against a client spraying
/// garbage methods); "invalid" is the slot for unparseable lines.
const char* const kMethods[] = {
    "ping",    "hello",      "open_study",  "close_study",
    "list_studies", "append_experiment", "append_gap", "retrack",
    "regions", "trends",     "report",      "coverage",
    "stats",   "metrics",    "health",      "evict",
    "sweep",   "shutdown",   "other",       "invalid",
};

thread_local std::uint64_t t_lock_wait_ns = 0;

}  // namespace

ServeMetrics::ServeMetrics(bool enabled) : enabled_(enabled) {
  for (const char* method : kMethods) {
    const std::string labels = std::string("method=\"") + method + "\"";
    methods_.emplace(
        method,
        MethodMetrics{
            &registry_.counter("perftrackd_requests_total", labels,
                               "Requests dispatched, by method"),
            &registry_.histogram(
                "perftrackd_request_ns", labels,
                "End-to-end request latency in nanoseconds (read off the "
                "wire to response written)"),
            &registry_.histogram(
                "perftrackd_handler_ns", labels,
                "Handler execution time in nanoseconds"),
        });
  }
  const char* const phases[] = {"parse", "lock_wait", "write"};
  obs::Histogram* slots[3];
  for (int i = 0; i < 3; ++i)
    slots[i] = &registry_.histogram(
        "perftrackd_phase_ns",
        std::string("phase=\"") + phases[i] + "\"",
        "Request phase breakdown in nanoseconds");
  phase_parse_ = slots[0];
  phase_lock_wait_ = slots[1];
  phase_write_ = slots[2];
  // Pre-register the occupancy gauges so a scrape before the first
  // request still shows the full catalogue.
  registry_.gauge("perftrackd_queue_depth", "",
                  "Open connections, each with at most one request in "
                  "flight");
  registry_.gauge("perftrackd_queue_capacity", "",
                  "Open-connection cap (--queue)");
  registry_.gauge("perftrackd_studies", "", "Open studies");
  registry_.gauge("perftrackd_resident_sessions", "",
                  "Studies with a live (non-evicted) session");
  registry_.gauge("perftrackd_uptime_seconds", "",
                  "Seconds since the service started");
  registry_.counter("perftrackd_overloaded_total", "",
                    "Connections refused at the open-connection cap");
  registry_.gauge("perftrackd_render_cache_hits", "",
                  "Render-cache hits (lock-free read responses)");
  registry_.gauge("perftrackd_render_cache_misses", "",
                  "Render-cache misses (responses rendered fresh)");
  registry_.gauge("perftrackd_render_cache_inserts", "",
                  "Render-cache entries inserted");
  registry_.gauge("perftrackd_render_cache_evictions", "",
                  "Render-cache entries dropped by capacity");
  registry_.gauge("perftrackd_render_cache_entries", "",
                  "Render-cache entries resident");
  // Zero-seed one error counter per code (the enum is closed), so the
  // family is always scrapeable and rate() starts from 0, not absence.
  for (int code = 0; code <= static_cast<int>(ErrorCode::Internal); ++code)
    registry_.counter(
        "perftrackd_errors_total",
        "code=\"" +
            std::string(error_code_name(static_cast<ErrorCode>(code))) + "\"",
        "Error responses, by protocol error code");
}

const ServeMetrics::MethodMetrics* ServeMetrics::method_metrics(
    const std::string& method) const {
  auto it = methods_.find(method);
  if (it == methods_.end()) it = methods_.find("other");
  return &it->second;
}

void ServeMetrics::count_error(std::string_view code) {
  if (!enabled_) return;
  // Error codes are a closed enum, so get-or-create stays bounded; the
  // registry lookup only runs on (rare) error responses.
  registry_.counter("perftrackd_errors_total",
                    "code=\"" + std::string(code) + "\"",
                    "Error responses, by protocol error code")
      .add();
}

void ServeMetrics::record_phase_ns(Phase phase, std::uint64_t ns) {
  if (!enabled_) return;
  switch (phase) {
    case Phase::Parse: phase_parse_->record(ns); break;
    case Phase::LockWait: phase_lock_wait_->record(ns); break;
    case Phase::Write: phase_write_->record(ns); break;
  }
}

void ServeMetrics::record_lock_wait_ns(std::uint64_t ns) {
  t_lock_wait_ns += ns;
  if (!enabled_) return;
  phase_lock_wait_->record(ns);
}

std::vector<std::pair<std::string, obs::HistogramSnapshot>>
ServeMetrics::per_method_latency() const {
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> out;
  for (const char* method : kMethods) {
    const MethodMetrics& slot = methods_.at(method);
    obs::HistogramSnapshot snap = slot.request_ns->snapshot();
    if (snap.count == 0) snap = slot.handler_ns->snapshot();
    if (snap.count == 0) continue;
    out.emplace_back(method, std::move(snap));
  }
  return out;
}

void ServeMetrics::reset_request_context() { t_lock_wait_ns = 0; }

std::uint64_t ServeMetrics::context_lock_wait_ns() { return t_lock_wait_ns; }

}  // namespace perftrack::serve
