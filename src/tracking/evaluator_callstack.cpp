#include "tracking/evaluator_callstack.hpp"

#include <map>
#include <string>

#include "common/failpoint.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::tracking {

namespace {

/// Structural key of a source location (per-trace ids are not comparable
/// across traces).
std::string location_key(const trace::CallstackTable& table,
                         trace::CallstackId id) {
  const trace::SourceLocation& loc = table.resolve(id);
  return loc.file + ":" + std::to_string(loc.line) + ":" + loc.function;
}

/// Per-object weight of each structural location, outliers dropped.
std::map<std::string, double> object_locations(
    const cluster::Frame& frame, cluster::ObjectId id, double threshold) {
  std::map<std::string, double> out;
  const auto& table = frame.source().callstacks();
  for (const auto& [cs, weight] : frame.object(id).callstack_weight) {
    if (weight < threshold) continue;  // noise computations
    out[location_key(table, cs)] += weight;
  }
  return out;
}

}  // namespace

CorrelationMatrix evaluate_callstack(const cluster::Frame& frame_a,
                                     const cluster::Frame& frame_b,
                                     double outlier_threshold) {
  PT_SPAN("evaluator_callstack");
  PT_FAILPOINT("evaluator_callstack");
  const std::size_t n = frame_a.object_count();
  const std::size_t m = frame_b.object_count();
  CorrelationMatrix out(n, m);

  std::vector<std::map<std::string, double>> locs_b(m);
  for (std::size_t j = 0; j < m; ++j)
    locs_b[j] = object_locations(frame_b, static_cast<cluster::ObjectId>(j),
                                 outlier_threshold);

  for (std::size_t i = 0; i < n; ++i) {
    auto locs_a = object_locations(frame_a, static_cast<cluster::ObjectId>(i),
                                   outlier_threshold);
    for (std::size_t j = 0; j < m; ++j) {
      double shared = 0.0;
      for (const auto& [key, weight] : locs_a)
        if (locs_b[j].count(key)) shared += weight;
      out.set(i, j, shared);
    }
  }
  out.threshold(outlier_threshold);
  if (obs::enabled()) {
    double links = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < m; ++j)
        if (out.at(i, j) > 0.0) ++links;
    PT_COUNTER("callstack_links", links);
  }
  return out;
}

}  // namespace perftrack::tracking
