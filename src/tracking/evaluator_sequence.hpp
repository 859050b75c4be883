#pragma once
// Execution-sequence evaluator (paper §3.4, Fig. 5).
//
// Unless the execution flow changed, two experiments run the same phases
// in the same chronological order. Their consensus sequences cannot be
// compared symbol-by-symbol (identifiers differ between experiments), so
// the alignment is anchored on *pivots* — the correspondences the earlier
// evaluators already established: aligning a pivot pair scores high,
// aligning a symbol against a contradicting pivot scores negative, and two
// unknown symbols are neutral (alignable). Cell (i, j) of the result is
// the fraction of i's aligned occurrences that face j — the evidence used
// to split wide relations and attach unmatched objects.

#include "align/nw.hpp"
#include "cluster/frame.hpp"
#include "tracking/correlation.hpp"
#include "tracking/frame_alignment.hpp"
#include "tracking/relation.hpp"

namespace perftrack::tracking {

CorrelationMatrix evaluate_sequence(
    const cluster::Frame& frame_a, const FrameAlignment& alignment_a,
    const cluster::Frame& frame_b, const FrameAlignment& alignment_b,
    const RelationSet& pivots, double outlier_threshold = 0.05);

}  // namespace perftrack::tracking
