#pragma once
// Whole-sequence tracking (paper §3.5).
//
// Runs the pair combiner over every consecutive frame pair and chains the
// relations into tracked regions: sets of objects, one (or a group) per
// frame, that are the same behavioural entity along the whole sequence.
// Regions present in every frame are "complete"; the coverage score is
// complete regions / the maximum number of identifiable objects (the
// smallest per-frame object count — a pairwise relation count can never
// exceed min(n, m), so this is the best any tracker could do).

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/frame.hpp"
#include "tracking/combiner.hpp"
#include "tracking/scale.hpp"

namespace perftrack::tracking {

/// A sequence slot whose experiment failed to load or cluster. The frames
/// around a gap are paired directly (the gap is bridged, not interpolated),
/// and every report renders the gap so a degraded run is never mistaken
/// for a shorter healthy one.
struct ExperimentGap {
  std::size_t slot = 0;  ///< position in the full experiment sequence
  std::string label;     ///< experiment label or file path
  std::string reason;    ///< what failed (exception message)
};

struct TrackedRegion {
  /// Dense region index; display numbering is id + 1.
  int id = 0;

  /// Objects of this region in each frame (empty set = not present there).
  std::vector<std::set<ObjectId>> members;

  /// Present in every frame of the sequence.
  bool complete = false;

  /// Sum of the member objects' total burst durations across all frames.
  double total_duration = 0.0;

  std::size_t frames_present() const;
};

struct TrackingResult {
  std::vector<cluster::Frame> frames;
  ScaleNormalization scale;

  /// Pairwise artefacts: pairs[p] tracks frames[p] -> frames[p+1].
  std::vector<PairTracking> pairs;

  /// All regions: complete ones first (ordered by decreasing duration),
  /// then partial ones.
  std::vector<TrackedRegion> regions;

  std::size_t complete_count = 0;

  /// complete_count / min over frames of the object count. Computed over
  /// the *surviving* frames only; see effective_coverage() for the score
  /// that charges gaps.
  double coverage = 0.0;

  /// renaming[f][object] = region id, or -1 for objects in no region.
  std::vector<std::vector<std::int32_t>> renaming;

  /// Sequence slots lost to load/cluster failures (degraded runs only).
  /// Filled by TrackingSession; track_frames itself never creates gaps.
  std::vector<ExperimentGap> gaps;

  /// Experiments originally in the sequence: surviving frames plus gaps.
  std::size_t sequence_length() const { return frames.size() + gaps.size(); }

  bool degraded() const { return !gaps.empty(); }

  /// Coverage discounted by the surviving fraction of the sequence, so a
  /// degraded run cannot silently report the score of a shorter healthy
  /// one (Table 2 accounting).
  double effective_coverage() const;

  const TrackedRegion& region(int id) const;
};

/// Track a sequence of >= 2 frames built over the same metric axes: the
/// frames replayed through a fresh TrackingSession (tracking/session.hpp),
/// so a batch run and an incremental one share a single implementation.
/// Throws Error when `params` fails SessionConfig::validate().
TrackingResult track_frames(std::vector<cluster::Frame> frames,
                            const TrackingParams& params = {});

/// Per-axis log flags the scale fit uses: params.log_scale when set,
/// otherwise log on every task-weighted axis of `first`'s metric space.
std::vector<bool> tracking_log_scale(const TrackingParams& params,
                                     const cluster::Frame& first);

}  // namespace perftrack::tracking
