#include "serve/access_log.hpp"

#include <chrono>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::serve {

namespace {

std::uint64_t wall_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t to_us(std::uint64_t ns) { return ns / 1000; }

void write_record_fields(obs::JsonWriter& json, const RequestRecord& record) {
  json.key("ts_ms").value(wall_ms());
  if (record.id.empty())
    json.key("id").null();
  else
    // The id is raw JSON (number or string); quote it as text so the log
    // line stays valid JSON whatever the client sent.
    json.key("id").value(record.id);
  json.key("method").value(record.method);
  if (!record.study.empty()) json.key("study").value(record.study);
  json.key("outcome").value(record.outcome);
  json.key("parse_us").value(to_us(record.parse_ns));
  json.key("lock_us").value(to_us(record.lock_ns));
  json.key("handler_us").value(to_us(record.handler_ns));
  json.key("write_us").value(to_us(record.write_ns));
  json.key("total_us").value(to_us(record.total_ns));
}

/// Span tree rebuilt from one thread's events inside a time window.
struct WindowSpan {
  const char* name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::vector<WindowSpan> children;
};

WindowSpan& window_child(WindowSpan& parent, const char* name) {
  for (WindowSpan& child : parent.children)
    if (child.name == name || std::string_view(child.name) == name)
      return child;
  parent.children.push_back(WindowSpan{name});
  return parent.children.back();
}

void render_span(obs::JsonWriter& json, const WindowSpan& span) {
  json.begin_object();
  json.key("name").value(span.name);
  json.key("count").value(span.count);
  json.key("total_us").value(to_us(span.total_ns));
  if (!span.children.empty()) {
    json.key("spans").begin_array();
    for (const WindowSpan& child : span.children) render_span(json, child);
    json.end_array();
  }
  json.end_object();
}

}  // namespace

std::string access_record_json(const RequestRecord& record) {
  obs::JsonWriter json;
  json.begin_object();
  write_record_fields(json, record);
  json.end_object();
  return json.str();
}

std::string slow_record_json(const RequestRecord& record,
                             std::uint64_t begin_ns, std::uint64_t end_ns) {
  // Replay this thread's events inside the request window into a tree —
  // the same fold collect() does globally, restricted to the spans this
  // request actually executed on its handler thread (nested pool workers
  // adopt the submitting spans, so the stage structure is still here).
  WindowSpan root{"request"};
  std::vector<std::pair<WindowSpan*, std::uint64_t>> stack;
  const obs::ThreadTimeline timeline = obs::current_thread_timeline();
  for (const obs::TimelineEvent& event : timeline.events) {
    if (event.ts_ns < begin_ns || event.ts_ns > end_ns) continue;
    WindowSpan& top = stack.empty() ? root : *stack.back().first;
    switch (event.kind) {
      case obs::TimelineEvent::Kind::Begin:
      case obs::TimelineEvent::Kind::CtxBegin: {
        WindowSpan& child = window_child(top, event.name);
        ++child.count;
        stack.emplace_back(&child, event.ts_ns);
        break;
      }
      case obs::TimelineEvent::Kind::End:
      case obs::TimelineEvent::Kind::CtxEnd:
        // A Begin before the window has no frame here; ignore its End.
        if (stack.empty()) break;
        stack.back().first->total_ns += event.ts_ns - stack.back().second;
        stack.pop_back();
        break;
      case obs::TimelineEvent::Kind::Counter:
      case obs::TimelineEvent::Kind::Gauge:
        break;
    }
  }

  obs::JsonWriter json;
  json.begin_object();
  write_record_fields(json, record);
  json.key("slow").value(true);
  json.key("spans").begin_array();
  for (const WindowSpan& span : root.children) render_span(json, span);
  json.end_array();
  json.end_object();
  return json.str();
}

void AccessLog::write(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << line << '\n';
  out_.flush();
}

}  // namespace perftrack::serve
