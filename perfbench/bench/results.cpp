#include "bench/results.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace perfbench {

namespace {

bool valid_chars(const std::string& text, const std::string& extra,
                 std::size_t max_len) {
  if (text.empty() || text.size() > max_len) return false;
  return std::all_of(text.begin(), text.end(), [&](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) ||
           extra.find(c) != std::string::npos;
  });
}

}  // namespace

void Results::add(const std::string& name, const std::string& unit,
                  double value) {
  if (!valid_chars(name, "_.-", 64) ||
      !std::isalnum(static_cast<unsigned char>(name.front())))
    throw perftrack::Error("invalid metric name '" + name + "'");
  if (!valid_chars(unit, "_/%.-", 16))
    throw perftrack::Error("invalid unit '" + unit + "' for " + name);
  if (!std::isfinite(value))
    throw perftrack::Error("metric " + name + " is not finite");
  if (has(name)) throw perftrack::Error("metric " + name + " reported twice");
  metrics_.push_back({name, unit, value});
}

bool Results::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string Results::table() const {
  std::size_t width = 0;
  for (const Metric& m : metrics_) width = std::max(width, m.name.size());
  std::string out;
  char buf[64];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof buf, "%14.6g", m.value);
    out += "  " + m.name + std::string(width - m.name.size(), ' ') + buf +
           " " + m.unit + "\n";
  }
  return out;
}

std::string Results::result_line(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
  perftrack::obs::JsonWriter json;
  json.begin_object();
  json.key("correct").value(correct);
  json.key("attempted").value(attempted);
  json.key("failed").value(failed);
  json.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    json.key(m.name).begin_object();
    json.key("value").value(m.value);
    json.key("unit").value(m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace perfbench
