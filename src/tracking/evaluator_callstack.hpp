#pragma once
// Call-stack evaluator (paper §3.3, Table 1).
//
// Every burst carries the source location where its computation starts.
// Cell (i, j) is the fraction of A_i's bursts whose location also appears
// among B_j's locations. A zero cell proves the two objects cannot be the
// same code — the combiner uses this to prune relations; non-zero cells
// reduce the combinatorial search space but cannot discriminate on their
// own (several code points may behave identically, and one code point may
// behave multimodally).

#include "cluster/frame.hpp"
#include "tracking/correlation.hpp"

namespace perftrack::tracking {

/// A objects x B objects shared-reference fractions. Locations are
/// compared structurally (function/file/line), not by per-trace id.
CorrelationMatrix evaluate_callstack(const cluster::Frame& frame_a,
                                     const cluster::Frame& frame_b,
                                     double outlier_threshold = 0.05);

}  // namespace perftrack::tracking
