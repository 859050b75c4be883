#include "bench/profile.hpp"

#include <fstream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace perfbench {

namespace {

using perftrack::obs::JsonValue;

// Add `node` and its subtree to `out`; `open` holds the span names above it.
void fold_node(const JsonValue& node, std::multiset<std::string>& open,
               ProgramProfile& out) {
  const std::string& name = node.at("name").string;
  if (open.count(name) == 0) {
    StageTotals& totals = out.stages[name];
    totals.count += node.at("count").number;
    totals.total_ns += node.at("total_ns").number;
    totals.self_ns += node.at("self_ns").number;
  }
  const std::vector<JsonValue>& children = node.at("children").array;
  if (!children.empty()) out.unattributed_ns += node.at("self_ns").number;
  auto it = open.insert(name);
  for (const JsonValue& child : children) fold_node(child, open, out);
  open.erase(it);
}

ProgramProfile fold_report(const std::string& report_json) {
  const JsonValue doc = perftrack::obs::parse_json(report_json);
  if (!doc.has("schema") || doc.at("schema").string != "perftrack-run-report")
    throw perftrack::Error("not a perftrack run report");
  ProgramProfile out;
  std::multiset<std::string> open;
  // The root is the synthetic whole-run span, not a stage.
  for (const JsonValue& child : doc.at("spans").at("children").array) {
    out.top_ns += child.at("total_ns").number;
    fold_node(child, open, out);
  }
  for (const auto& [name, value] : doc.at("counters").object)
    out.counters[name] = value.number;
  return out;
}

}  // namespace

double ProgramProfile::stage_ms(const std::string& stage) const {
  auto it = stages.find(stage);
  return it == stages.end() ? 0.0 : it->second.total_ns / 1e6;
}

double ProgramProfile::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

ProgramProfile ProgramProfile::minus(const ProgramProfile& before) const {
  ProgramProfile out;
  for (const auto& [name, after] : stages) {
    StageTotals delta = after;
    if (auto it = before.stages.find(name); it != before.stages.end()) {
      delta.count -= it->second.count;
      delta.total_ns -= it->second.total_ns;
      delta.self_ns -= it->second.self_ns;
    }
    if (delta.count <= 0) continue;
    out.stages[name] = delta;
  }
  for (const auto& [name, value] : counters)
    out.counters[name] = value - before.counter(name);
  out.top_ns = top_ns - before.top_ns;
  out.unattributed_ns = unattributed_ns - before.unattributed_ns;
  return out;
}

std::string ProgramProfile::json() const {
  perftrack::obs::JsonWriter json;
  json.begin_object();
  json.key("stages").begin_object();
  for (const auto& [name, t] : stages) {
    json.key(name).begin_object();
    json.key("count").value(t.count);
    json.key("total_ns").value(t.total_ns);
    json.key("self_ns").value(t.self_ns);
    json.end_object();
  }
  json.end_object();
  json.key("counters").begin_object();
  for (const auto& [name, value] : counters) json.key(name).value(value);
  json.end_object();
  json.key("top_ns").value(top_ns);
  json.key("unattributed_ns").value(unattributed_ns);
  json.end_object();
  return json.str();
}

ProgramProfile fold(const perftrack::obs::RunReport& report) {
  return fold_report(perftrack::obs::report_json(report));
}

ProgramProfile load_profile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw perftrack::IoError("cannot read profile " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return fold_report(text.str());
}

}  // namespace perfbench
