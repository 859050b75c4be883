#pragma once
// Pipeline telemetry: scoped spans, counters and gauges.
//
// The tracking pipeline is a multi-stage computation (project -> cluster ->
// align -> evaluate -> combine -> chain); this module measures it. Library
// code marks stages with PT_SPAN("name") and attaches numbers to the active
// stage with PT_COUNTER/PT_GAUGE. Recording is off by default: a disabled
// span costs one relaxed atomic load, so the instrumentation can stay in
// release builds (the perf_tracking benches pin the overhead).
//
//   void dbscan(...) {
//     PT_SPAN("dbscan");
//     ...
//     PT_COUNTER("noise_points", result.noise_count());
//   }
//
// Spans nest lexically and the nesting is recorded: collect() folds the raw
// per-thread event streams into one hierarchical tree whose nodes aggregate
// every execution of the same stage at the same position (count, total and
// self wall-time, attached counters). Three sinks render it (obs/report.hpp):
// a text summary table, a structured JSON run report, and Chrome
// trace_event JSON loadable in Perfetto / chrome://tracing.
//
// Thread safety: every thread records into its own buffer (registered once
// under a mutex); collect() merges stage trees across threads by span name.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perftrack::obs {

/// Is telemetry recording globally enabled? Defaults to off (or on when the
/// build sets PERFTRACK_PROFILING, see the top-level CMake option).
bool enabled();
void set_enabled(bool on);

/// Discard everything recorded so far (spans, counters, gauges) on every
/// thread. Thread registrations survive.
void reset();

/// Monotonic nanoseconds since the telemetry clock anchor, taken during
/// static initialisation (so a run report's wall time covers the process).
std::uint64_t now_ns();

/// RAII span. Use via PT_SPAN; `name` must have static storage duration
/// (string literals) — the recorder stores the pointer, not a copy.
class ScopedSpan {
public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  const char* name_;
  bool active_;
};

/// Names of the spans currently open on this thread, outermost first.
/// Capture this on a submitting thread and adopt it on a worker with
/// SpanContext, so spans recorded inside pool tasks keep their place in
/// the collected tree instead of dangling off the root.
std::vector<const char*> current_span_path();

/// RAII adoption of a span path on another thread. Records context markers
/// that position subsequent spans and counters under `path` when the
/// per-thread streams are folded, without adding to the path spans' counts
/// or wall time (the submitting thread already measures those). The prefix
/// of `path` already open on the current thread is skipped, so adopting on
/// the submitting thread itself (a pool in inline mode) is a no-op.
class SpanContext {
public:
  explicit SpanContext(const std::vector<const char*>& path);
  ~SpanContext();
  SpanContext(const SpanContext&) = delete;
  SpanContext& operator=(const SpanContext&) = delete;

private:
  std::vector<const char*> adopted_;
};

/// Add `value` to counter `name` on the active span of this thread (sums
/// across calls and threads). `name` must be a string literal.
void add_counter(const char* name, double value = 1.0);

/// Set gauge `name` to `value`. Last write wins *by recording timestamp*:
/// collect() resolves writes from different threads deterministically by
/// the telemetry clock (now_ns) at the moment of the set, independent of
/// thread registration order; writes in the same nanosecond resolve to
/// the larger value. `name` must be a string literal.
void set_gauge(const char* name, double value);

// ---------------------------------------------------------------------------
// Collected results.

/// One stage of the aggregated span tree. Executions of the same span name
/// under the same parent are folded together.
struct SpanNode {
  std::string name;
  std::uint64_t count = 0;     ///< number of executions
  std::uint64_t total_ns = 0;  ///< wall time, children included
  std::uint64_t self_ns = 0;   ///< total_ns minus children's total_ns
  std::uint64_t min_ns = 0;    ///< fastest completed execution (0 if none)
  std::uint64_t max_ns = 0;    ///< slowest completed execution (0 if none)
  std::map<std::string, double> counters;  ///< counters recorded inside
  std::vector<SpanNode> children;
};

/// Aggregated view of everything recorded so far. The root node is the
/// synthetic "run" span covering the whole process lifetime.
struct RunReport {
  std::string label;  ///< optional run identifier (bench id, command line)
  SpanNode root;
  std::map<std::string, double> counters;  ///< totals across all spans
  std::map<std::string, double> gauges;
  std::uint64_t wall_ns = 0;
  std::uint64_t peak_rss_bytes = 0;
};

/// Snapshot and aggregate the recorded events (does not clear them).
RunReport collect();

/// Raw per-thread event streams, for the Chrome trace_event sink.
struct TimelineEvent {
  /// CtxBegin/CtxEnd are SpanContext markers: they re-open a span name for
  /// tree placement only (no execution count, no wall time).
  enum class Kind { Begin, End, Counter, Gauge, CtxBegin, CtxEnd };
  Kind kind;
  const char* name;
  double value;
  std::uint64_t ts_ns;
};

struct ThreadTimeline {
  std::uint32_t tid = 0;
  std::vector<TimelineEvent> events;
};

/// Snapshot the raw timelines (does not clear them).
std::vector<ThreadTimeline> timelines();

/// Snapshot the calling thread's own raw events (does not clear them).
/// The serve layer's slow-request capture uses this to extract the span
/// tree of one request window without copying every thread's stream.
ThreadTimeline current_thread_timeline();

}  // namespace perftrack::obs

#define PT_OBS_CONCAT_IMPL(a, b) a##b
#define PT_OBS_CONCAT(a, b) PT_OBS_CONCAT_IMPL(a, b)

/// Time the enclosing scope as pipeline stage `name` (a string literal).
#define PT_SPAN(name) \
  ::perftrack::obs::ScopedSpan PT_OBS_CONCAT(pt_span_, __LINE__)(name)

/// Add `value` to counter `name` on the active span.
#define PT_COUNTER(name, value) ::perftrack::obs::add_counter(name, value)

/// Set gauge `name` to `value` (last write wins).
#define PT_GAUGE(name, value) ::perftrack::obs::set_gauge(name, value)
