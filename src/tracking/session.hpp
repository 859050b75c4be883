#pragma once
// Incremental tracking sessions (the append-only analyst workflow).
//
// The paper's tool is used one experiment at a time: run a new core count
// or input deck, append its trace, re-examine the tracked sequence. A
// TrackingSession makes that loop cheap by only doing new work on each
// call: per-experiment frames and adjacent-pair tracking relations are
// memoised, so appending experiment N+1 clusters one trace and — when the
// cross-experiment scale is unchanged — tracks one new pair instead of N.
//
//   TrackingSession session(config);
//   session.append_experiment(trace_128);
//   session.append_experiment(trace_256);
//   TrackingResult r1 = session.retrack();
//   session.append_experiment(trace_512);   // one clustering, one new pair
//   TrackingResult r2 = session.retrack();
//
// The session is the library's only tracking loop: a batch run is a fresh
// session replayed in one go (track_frames in tracker.hpp appends its
// frames with append_frame and retracks once).
//
// Equivalence guarantee: retrack() is bit-identical to one retrack of a
// fresh session over the same experiments and configuration — memoised
// artefacts are only reused when every input that determines them is
// unchanged. In particular the min-max scale fitted over ALL experiments
// guards the pair memo: an appended frame that extends a range invalidates
// every memoised pair (they are re-tracked from the memoised frames, which
// is still cheap next to re-clustering). docs/SESSIONS.md covers the full
// model.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/frame.hpp"
#include "tracking/frame_alignment.hpp"
#include "tracking/tracker.hpp"

namespace perftrack::tracking {

/// Degraded-mode policy for a tracking run.
struct ResilienceParams {
  /// Convert per-experiment clustering failures into gaps instead of
  /// rethrowing. Off = fail-fast.
  bool lenient = false;

  /// Error budget: abort when more than this fraction of the experiment
  /// sequence is gaps (counting append_gap slots). The run also always
  /// needs at least two surviving frames.
  double max_gap_fraction = 0.5;
};

/// The complete, validated configuration of a tracking run — clustering,
/// tracking and resilience in one aggregate (replacing the old grab-bag of
/// pipeline setters). Defaults reproduce the paper's setup:
/// Instructions x IPC metric space with a log-scaled instruction axis.
struct SessionConfig {
  SessionConfig();

  cluster::ClusteringParams clustering;
  TrackingParams tracking;
  ResilienceParams resilience;

  /// Every problem with this configuration, one message each — empty means
  /// valid. Reports all problems at once rather than failing on the first.
  std::vector<std::string> validate() const;

  /// Throws Error listing every validate() problem; no-op when valid.
  void validate_or_throw() const;
};

/// Work/reuse accounting for one session (cumulative across retracks).
struct SessionStats {
  std::uint64_t frames_clustered = 0;  ///< built by build_frame
  /// Reused in memory: clustered by an earlier retrack, or appended
  /// already built (append_frame).
  std::uint64_t frames_memoized = 0;
  std::uint64_t pairs_tracked = 0;     ///< track_pair executions
  std::uint64_t pairs_memoized = 0;    ///< pair relations reused
  std::uint64_t scale_invalidations = 0;  ///< pair memo flushes (scale moved)
  std::uint64_t alignments_computed = 0;  ///< star alignments actually run
  std::uint64_t alignments_memoized = 0;  ///< profiles shared across slots
};

class TrackingSession {
public:
  /// Validates `config` (throws Error listing every problem). The
  /// configuration is fixed for the session's lifetime — memoised work is
  /// only reusable because nothing that determines it can change.
  explicit TrackingSession(SessionConfig config = {});

  const SessionConfig& config() const { return config_; }

  /// Append one experiment; sequence order is insertion order. Returns the
  /// slot index. No work happens until retrack().
  std::size_t append_experiment(std::shared_ptr<const trace::Trace> trace);

  /// Append an experiment that is already clustered; it is tracked as-is,
  /// with no clustering and no `cluster_experiment` failpoint. The frame
  /// must share the other slots' metric axes. Returns the slot index.
  std::size_t append_frame(cluster::Frame frame);

  /// Append a slot for an experiment that already failed upstream (e.g. an
  /// unreadable trace file). Participates in gap accounting and reporting
  /// but contributes no frame.
  std::size_t append_gap(std::string label, std::string reason);

  /// Sequence slots added so far (experiments plus pre-declared gaps).
  std::size_t experiment_count() const { return slots_.size(); }
  std::size_t gap_count() const;

  /// Cluster what is new, track what changed, and chain the full sequence.
  /// Requires >= 2 slots and >= 2 surviving frames after gap handling;
  /// throws Error when the gap budget is exhausted. Bit-identical to a
  /// cold batch run over the same inputs.
  TrackingResult retrack() &;

  /// The same retrack on a session that is discarded afterwards (as
  /// track_frames does): the frames move into the result instead of being
  /// copied, so the run does not hold them twice.
  TrackingResult retrack() &&;

  const SessionStats& stats() const { return stats_; }

private:
  struct Slot {
    /// The experiment's trace; null for gap slots (and for a prebuilt
    /// frame that carries no source).
    std::shared_ptr<const trace::Trace> trace;
    std::string label;
    std::string reason;      ///< gap reason (append_gap or failed build)
    bool attempted = false;  ///< clustering tried (memoised outcome below)
    std::optional<cluster::Frame> frame;
    std::shared_ptr<const FrameAlignment> alignment;  ///< from alignment_memo_
    std::exception_ptr rethrow;  ///< original failure, for strict mode

    bool gap() const { return trace == nullptr && !frame.has_value(); }
  };

  void cluster_new_slots();
  TrackingResult retrack_slots(bool move_frames);

  SessionConfig config_;
  std::vector<Slot> slots_;

  /// Pair memo: (left slot, right slot) of consecutive surviving frames ->
  /// relations, valid only under pair_scale_.
  std::map<std::pair<std::size_t, std::size_t>, PairTracking> pair_memo_;
  std::optional<ScaleNormalization> pair_scale_;

  /// Star-align memo: fingerprint of a frame's task sequences -> profiles
  /// computed for that fingerprint (a bucket, probed with an exact sequence
  /// comparison, so hash collisions cannot alias two frames). Slots whose
  /// frames share task sequences — re-appended experiments, symmetric runs
  /// — share one immutable FrameAlignment. Never invalidated: a profile
  /// depends only on the sequences and the session-fixed scores/engine.
  struct AlignmentMemoEntry {
    std::vector<std::vector<align::Symbol>> sequences;
    std::shared_ptr<const FrameAlignment> alignment;
  };
  std::map<std::uint64_t, std::vector<AlignmentMemoEntry>> alignment_memo_;

  SessionStats stats_;
};

}  // namespace perftrack::tracking
