#pragma once
// Combination of the four evaluators into frame-pair relations (paper §3).
//
// The combiner follows the paper's recipe:
//   1. seed the relation graph with the displacement evaluator's reciprocal
//      correspondences (A->B and B->A),
//   2. enhance with the SPMD evaluator's within-frame simultaneity merges
//      (B5 and B13 always run together => one entity),
//   3. prune candidate links whose objects share no call-stack reference,
//   4. extract connected components as relations; where the information
//      could not discriminate nearby objects this yields wide relations,
//   5. refine: align the two execution sequences anchored at the already
//      established (univocal) pivots, split wide relations where the
//      sequence evidence supports it, and attach still-unmatched objects.

#include "align/nw.hpp"
#include "cluster/frame.hpp"
#include "tracking/correlation.hpp"
#include "tracking/evaluator_displacement.hpp"
#include "tracking/frame_alignment.hpp"
#include "tracking/relation.hpp"
#include "tracking/scale.hpp"

namespace perftrack::tracking {

struct TrackingParams {
  /// Correlation cells below this are treated as outliers (paper: 5%).
  double outlier_threshold = 0.05;

  /// Minimum simultaneity for an SPMD within-frame merge.
  double spmd_threshold = 0.5;

  /// Minimum aligned-occurrence support for a sequence-based refinement.
  double sequence_threshold = 0.5;

  /// Scores for the per-frame multiple sequence alignment.
  align::AlignmentScores alignment_scores{};

  /// Per-axis log10 in the common normalised space; empty defaults to
  /// log-scaling every task-weighted axis (instruction-like totals).
  std::vector<bool> log_scale{};

  // Evaluator switches (ablation studies disable individual heuristics).
  bool use_displacement = true;
  bool use_spmd = true;
  bool use_callstack = true;
  bool use_sequence = true;

  /// Worker threads for the parallel stages (per-frame clustering and
  /// alignment, per-pair tracking, within-pair displacement sweeps).
  /// 0 = hardware concurrency; 1 = serial. The tracked result is identical
  /// for every value — only scheduling changes (see docs/PERFORMANCE.md).
  std::size_t threads = 0;
};

/// Everything learnt about one consecutive frame pair.
struct PairTracking {
  RelationSet relations;

  // Evaluator artefacts, kept for reporting (Figs. 3-5, Table 1).
  DisplacementResult displacement;
  CorrelationMatrix spmd_a;      ///< square, frame A
  CorrelationMatrix spmd_b;      ///< square, frame B
  CorrelationMatrix callstack;   ///< A objects x B objects
  CorrelationMatrix sequence;    ///< A objects x B objects
};

/// Track one consecutive frame pair. The FrameAlignments must have been
/// built from these frames; the ScaleNormalization from the whole sequence.
/// `cloud_a`/`cloud_b` optionally pass the tracker's per-frame displacement
/// cache (FrameClouds built from these frames with `scale`); when null the
/// displacement evaluator builds its clouds on the fly. `pool` (optional)
/// parallelises the displacement sweeps within the pair.
PairTracking track_pair(const cluster::Frame& frame_a,
                        const FrameAlignment& alignment_a,
                        const cluster::Frame& frame_b,
                        const FrameAlignment& alignment_b,
                        const ScaleNormalization& scale,
                        const TrackingParams& params,
                        const FrameCloud* cloud_a = nullptr,
                        const FrameCloud* cloud_b = nullptr,
                        ThreadPool* pool = nullptr);

}  // namespace perftrack::tracking
