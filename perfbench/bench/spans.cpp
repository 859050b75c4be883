#include "bench/spans.hpp"

#include <chrono>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder::Recorder(bool keep_spans, std::uint64_t op_base)
    : keep_spans_(keep_spans), op_(op_base) {}

std::vector<double>& Recorder::durations(std::string_view name) {
  auto it = durations_.find(name);
  if (it == durations_.end())
    it = durations_.emplace(std::string(name), std::vector<double>{}).first;
  return it->second;
}

void Recorder::merge(Recorder&& other) {
  for (auto& [name, values] : other.durations_) {
    std::vector<double>& mine = durations(name);
    mine.insert(mine.end(), values.begin(), values.end());
  }
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (SpanRecord record : other.spans_) {
    if (record.parent >= 0) record.parent += offset;
    spans_.push_back(record);
  }
  ops_ += other.ops_;
  other.durations_.clear();
  other.spans_.clear();
  other.ops_ = 0;
}

Span::Span(Recorder& recorder, const char* name)
    : recorder_(recorder), name_(name), start_(now_ns()) {
  if (recorder_.keep_spans_) {
    parent_ = recorder_.open_;
    index_ = static_cast<std::int64_t>(recorder_.spans_.size());
    recorder_.spans_.push_back({name_, recorder_.op_, parent_, start_, 0});
    recorder_.open_ = index_;
  }
}

std::int64_t Span::finish() {
  if (duration_ >= 0) return duration_;
  const std::int64_t end = now_ns();
  duration_ = end - start_;
  recorder_.durations(name_).push_back(static_cast<double>(duration_));
  if (index_ >= 0) {
    recorder_.spans_[static_cast<std::size_t>(index_)].end_ns = end;
    recorder_.open_ = parent_;
  }
  return duration_;
}

SpanSummary summarize(const std::vector<SpanRecord>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);

  SpanSummary summary;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double wall = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanTotals& totals = summary.by_name[spans[i].name];
    ++totals.count;
    totals.total_ns += wall;
    totals.self_ns += wall - child_ns[i];
    if (spans[i].parent < 0) summary.root_ns += wall;
  }
  return summary;
}

std::string spans_json(const std::string& workload,
                       const std::vector<SpanRecord>& spans,
                       const SpanSummary& summary,
                       const std::string& extra_json) {
  perftrack::obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("perfbench-spans");
  json.key("workload").value(workload);
  json.key("root_ns").value(summary.root_ns);
  json.key("layers").begin_object();
  for (const auto& [name, totals] : summary.by_name) {
    json.key(name).begin_object();
    json.key("count").value(totals.count);
    json.key("total_ns").value(totals.total_ns);
    json.key("self_ns").value(totals.self_ns);
    json.end_object();
  }
  json.end_object();
  // One array per span: [name, op, parent, start_ns, end_ns].
  json.key("spans").begin_array();
  for (const SpanRecord& s : spans) {
    json.begin_array();
    json.value(s.name);
    json.value(s.op);
    json.value(static_cast<double>(s.parent));
    json.value(static_cast<std::uint64_t>(s.start_ns));
    json.value(static_cast<std::uint64_t>(s.end_ns));
    json.end_array();
  }
  json.end_array();
  json.end_object();
  std::string out = json.str();
  if (!extra_json.empty()) {
    out.pop_back();  // reopen the top-level object
    out += ",\"program\":" + extra_json + "}";
  }
  return out;
}

}  // namespace perfbench
