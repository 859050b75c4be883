#pragma once
// High-level facade: from traces to a tracked sequence in one call.
//
// This is the library's batch entry point, mirroring the tool described in
// the paper: feed it the experiments (traces), choose the metric pair and
// clustering/tracking parameters, run, and read back the tracked regions,
// their trends and the rendered reports.
//
//   TrackingPipeline pipeline;
//   pipeline.add_experiment(trace_128);
//   pipeline.add_experiment(trace_256);
//   TrackingResult result = pipeline.run();
//   std::cout << describe_tracking(result);
//
// run() is a thin wrapper over TrackingSession (tracking/session.hpp): it
// replays the recorded experiments into a fresh session and retracks once,
// so batch and incremental runs share one engine and cannot drift.
// Configuration goes through one surface: build a SessionConfig and pass
// it to set_config(); validate() (run by the session) reports every
// problem at once. The per-field setters that once shadowed it are gone.
//
// Degraded mode: with lenient resilience enabled, an experiment that fails
// to cluster (or that the caller already failed to load — add_gap) becomes
// an explicit gap in the frame sequence instead of aborting the run. The
// tracker bridges the gap by pairing its surviving neighbours directly, and
// the gap list travels on the TrackingResult so every report can render it.

#include <memory>
#include <string>
#include <vector>

#include "cluster/frame.hpp"
#include "tracking/session.hpp"
#include "tracking/tracker.hpp"

namespace perftrack::tracking {

class TrackingPipeline {
public:
  TrackingPipeline() = default;

  /// Append one experiment; sequence order is insertion order.
  void add_experiment(std::shared_ptr<const trace::Trace> trace);

  /// Append a slot for an experiment that already failed upstream (e.g. an
  /// unreadable trace file). The slot participates in gap accounting and
  /// reporting but contributes no frame.
  void add_gap(std::string label, std::string reason);

  /// The full run configuration. Validated by run() (via the session), not
  /// here, so callers can stage partial edits.
  void set_config(SessionConfig config) { config_ = std::move(config); }
  const SessionConfig& config() const { return config_; }

  /// Read-only views into the aggregate, for callers that only inspect.
  const cluster::ClusteringParams& clustering() const {
    return config_.clustering;
  }
  const TrackingParams& tracking() const { return config_.tracking; }
  const ResilienceParams& resilience() const { return config_.resilience; }

  /// Sequence slots added so far (experiments plus pre-declared gaps).
  std::size_t experiment_count() const { return entries_.size(); }
  std::size_t gap_count() const;

  /// Cluster every experiment and track the sequence. Requires >= 2
  /// surviving experiments after gap handling; throws Error when the gap
  /// budget is exhausted or the configuration is invalid.
  TrackingResult run() const;

private:
  struct Entry {
    std::shared_ptr<const trace::Trace> trace;  ///< null for add_gap slots
    std::string label;
    std::string reason;
  };

  std::vector<Entry> entries_;
  SessionConfig config_;
};

}  // namespace perftrack::tracking
