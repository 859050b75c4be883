#include "obs/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "obs/memory.hpp"

namespace perftrack::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// The telemetry clock's zero: the first call, which g_anchor_at_start
/// below makes happen during static initialisation.
Clock::time_point clock_anchor() {
  static const Clock::time_point anchor = Clock::now();
  return anchor;
}

/// Taking the anchor before main() makes a run report's wall time the
/// process's, including whatever ran before the first recorded event.
[[maybe_unused]] const Clock::time_point g_anchor_at_start = clock_anchor();

std::atomic<bool> g_enabled{
#ifdef PERFTRACK_PROFILING_DEFAULT_ON
    true
#else
    false
#endif
};

/// Per-thread event buffer. Owned (shared) by the registry so the data
/// outlives the thread; the mutex is effectively uncontended (the owning
/// thread appends, collect() reads).
struct ThreadLog {
  std::uint32_t tid = 0;
  std::mutex mutex;
  std::vector<TimelineEvent> events;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadLog>> threads;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadLog& local_log() {
  thread_local std::shared_ptr<ThreadLog> log = [] {
    auto created = std::make_shared<ThreadLog>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    created->tid = static_cast<std::uint32_t>(r.threads.size() + 1);
    r.threads.push_back(created);
    return created;
  }();
  return *log;
}

void record(TimelineEvent::Kind kind, const char* name, double value) {
  ThreadLog& log = local_log();
  const std::uint64_t ts = now_ns();
  std::lock_guard<std::mutex> lock(log.mutex);
  log.events.push_back(TimelineEvent{kind, name, value, ts});
}

/// Span names currently open on this thread (only tracked while recording
/// is enabled, mirroring the events actually in the stream).
thread_local std::vector<const char*> t_open_spans;

/// Find or create the child of `node` named `name`. min_ns starts at the
/// sentinel "no completed execution yet"; finalize_self_times() normalises
/// untouched nodes back to 0.
SpanNode& child_of(SpanNode& node, const char* name) {
  for (SpanNode& c : node.children)
    if (c.name == name) return c;
  node.children.emplace_back();
  node.children.back().name = name;
  node.children.back().min_ns = ~0ull;
  return node.children.back();
}

void finalize_self_times(SpanNode& node) {
  std::uint64_t children_total = 0;
  for (SpanNode& c : node.children) {
    finalize_self_times(c);
    children_total += c.total_ns;
  }
  node.self_ns = node.total_ns > children_total
                     ? node.total_ns - children_total
                     : 0;
  if (node.min_ns == ~0ull) node.min_ns = 0;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& log : r.threads) {
    std::lock_guard<std::mutex> log_lock(log->mutex);
    log->events.clear();
  }
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           clock_anchor())
          .count());
}

ScopedSpan::ScopedSpan(const char* name) : name_(name), active_(enabled()) {
  if (active_) {
    record(TimelineEvent::Kind::Begin, name_, 0.0);
    t_open_spans.push_back(name_);
  }
}

ScopedSpan::~ScopedSpan() {
  // Recorded even if telemetry was disabled mid-span, so Begin/End stay
  // paired in the stream.
  if (active_) {
    record(TimelineEvent::Kind::End, name_, 0.0);
    t_open_spans.pop_back();
  }
}

std::vector<const char*> current_span_path() { return t_open_spans; }

SpanContext::SpanContext(const std::vector<const char*>& path) {
  if (!enabled()) return;
  // Skip whatever prefix this thread already has open: adopting a path on
  // the thread that captured it (inline execution) re-records nothing.
  std::size_t start = 0;
  while (start < path.size() && start < t_open_spans.size() &&
         t_open_spans[start] == path[start])
    ++start;
  for (std::size_t i = start; i < path.size(); ++i) {
    record(TimelineEvent::Kind::CtxBegin, path[i], 0.0);
    t_open_spans.push_back(path[i]);
    adopted_.push_back(path[i]);
  }
}

SpanContext::~SpanContext() {
  for (std::size_t i = adopted_.size(); i-- > 0;) {
    record(TimelineEvent::Kind::CtxEnd, adopted_[i], 0.0);
    t_open_spans.pop_back();
  }
}

void add_counter(const char* name, double value) {
  if (enabled()) record(TimelineEvent::Kind::Counter, name, value);
}

void set_gauge(const char* name, double value) {
  if (enabled()) record(TimelineEvent::Kind::Gauge, name, value);
}

std::vector<ThreadTimeline> timelines() {
  std::vector<ThreadTimeline> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  out.reserve(r.threads.size());
  for (auto& log : r.threads) {
    std::lock_guard<std::mutex> log_lock(log->mutex);
    out.push_back(ThreadTimeline{log->tid, log->events});
  }
  return out;
}

ThreadTimeline current_thread_timeline() {
  ThreadLog& log = local_log();
  std::lock_guard<std::mutex> lock(log.mutex);
  return ThreadTimeline{log.tid, log.events};
}

RunReport collect() {
  RunReport report;
  report.root.name = "run";
  report.root.count = 1;

  // Gauge resolution: last write wins *by recording timestamp*, not by
  // thread registration order (threads are folded one after another, so a
  // naive overwrite would let an early writer on a late-registered thread
  // shadow a later write). Ties at the same nanosecond resolve to the
  // larger value so the merge stays deterministic either way.
  std::map<std::string, std::pair<std::uint64_t, double>> latest_gauges;

  const std::vector<ThreadTimeline> threads = timelines();
  const std::uint64_t now = now_ns();
  report.wall_ns = now;
  report.root.total_ns = now;

  for (const ThreadTimeline& thread : threads) {
    // Replay the thread's stream against the shared tree; stack entries
    // remember which node each open span landed in and when it began.
    struct Open {
      SpanNode* node;
      std::uint64_t begin_ns;
      bool context;  ///< SpanContext marker: placement only, no time
    };
    std::vector<Open> stack;
    auto top = [&]() -> SpanNode& {
      return stack.empty() ? report.root : *stack.back().node;
    };
    for (const TimelineEvent& event : thread.events) {
      switch (event.kind) {
        case TimelineEvent::Kind::Begin: {
          SpanNode& node = child_of(top(), event.name);
          ++node.count;
          stack.push_back(Open{&node, event.ts_ns, false});
          break;
        }
        case TimelineEvent::Kind::CtxBegin: {
          // An adopted parent frame: navigate into the node without
          // counting an execution — the submitting thread measures it.
          SpanNode& node = child_of(top(), event.name);
          stack.push_back(Open{&node, event.ts_ns, true});
          break;
        }
        case TimelineEvent::Kind::End:
        case TimelineEvent::Kind::CtxEnd: {
          if (stack.empty()) break;  // stray End: ignore
          if (!stack.back().context) {
            SpanNode& node = *stack.back().node;
            const std::uint64_t d = event.ts_ns - stack.back().begin_ns;
            node.total_ns += d;
            // min_ns/max_ns cover completed executions only; a span still
            // open at snapshot time contributes to total_ns but not here.
            if (d < node.min_ns) node.min_ns = d;
            if (d > node.max_ns) node.max_ns = d;
          }
          stack.pop_back();
          break;
        }
        case TimelineEvent::Kind::Counter:
          top().counters[event.name] += event.value;
          report.counters[event.name] += event.value;
          break;
        case TimelineEvent::Kind::Gauge: {
          auto [it, inserted] = latest_gauges.emplace(
              event.name, std::make_pair(event.ts_ns, event.value));
          if (!inserted && (event.ts_ns > it->second.first ||
                            (event.ts_ns == it->second.first &&
                             event.value > it->second.second)))
            it->second = {event.ts_ns, event.value};
          break;
        }
      }
    }
    // Spans still open at snapshot time count up to "now".
    for (const Open& open : stack)
      if (!open.context) open.node->total_ns += now - open.begin_ns;
  }

  for (const auto& [name, stamped] : latest_gauges)
    report.gauges[name] = stamped.second;

  finalize_self_times(report.root);
  report.peak_rss_bytes = peak_rss_bytes();
  return report;
}

}  // namespace perftrack::obs
