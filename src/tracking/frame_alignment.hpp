#pragma once
// Cached per-frame sequence alignment.
//
// Both the SPMD evaluator (§3.2) and the execution-sequence evaluator
// (§3.4) need the global alignment of a frame's per-task cluster sequences
// ([8]'s technique). FrameAlignment computes it once per frame and derives
// the two artefacts they consume: the column structure (who executes
// simultaneously) and the consensus sequence (the experiment's
// representative execution order).

#include <vector>

#include "align/msa.hpp"
#include "cluster/frame.hpp"

namespace perftrack::tracking {

class FrameAlignment {
public:
  /// `pool` (optional) parallelises the per-task alignments; the result is
  /// bit-identical for every pool and thread count (see align/msa.hpp).
  explicit FrameAlignment(const cluster::Frame& frame,
                          const align::AlignmentScores& scores = {},
                          ThreadPool* pool = nullptr);

  const align::MultipleAlignment& alignment() const { return msa_; }

  /// Representative execution sequence of the experiment (per-column
  /// majority vote over tasks).
  const std::vector<align::Symbol>& consensus() const { return consensus_; }

private:
  align::MultipleAlignment msa_;
  std::vector<align::Symbol> consensus_;
};

}  // namespace perftrack::tracking
