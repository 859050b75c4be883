#pragma once
// Star-progressive multiple sequence alignment.
//
// The SPMD evaluator aligns the per-task cluster sequences of one experiment
// into a global alignment: clusters of different tasks that land in the same
// column are being executed simultaneously (paper §3.2 / [8]). We use the
// classic centre-star heuristic: pick a centre sequence, align every other
// sequence to it pairwise, and merge under "once a gap, always a gap".
// Exact MSA is NP-hard; for the highly regular SPMD sequences here the star
// heuristic recovers the phase structure reliably and runs in
// O(k · L²) for k sequences of length L.
//
// Two implementation levers keep the output a pure function of the input:
//
//  * Pairwise memoisation — SPMD tasks mostly share one sequence, so each
//    distinct member sequence is aligned against the current centre once
//    and duplicates reuse the result (the alignment depends only on the
//    centre state and the member symbols).
//  * Speculative parallelism — members must merge in input order because a
//    merge that re-gaps the centre changes what later members align
//    against. With a thread pool, pending members are aligned against the
//    current centre in parallel rounds; the serial merge walk accepts
//    results in input order up to the first centre change and recomputes
//    the rest next round. Accepted alignments are exactly the ones the
//    serial loop computes, so the result is bit-identical at any thread
//    count (including none).

#include <span>
#include <vector>

#include "align/nw.hpp"

namespace perftrack {
class ThreadPool;
}

namespace perftrack::align {

/// A gapped alignment of k sequences over common columns.
class MultipleAlignment {
public:
  MultipleAlignment() = default;

  std::size_t sequence_count() const { return rows_.size(); }
  std::size_t column_count() const {
    return rows_.empty() ? 0 : rows_.front().size();
  }

  /// Row `s` (gapped copy of input sequence s, kGap where padded).
  std::span<const Symbol> row(std::size_t s) const { return rows_[s]; }

  /// Most frequent non-gap symbol per column (ties -> smaller symbol).
  /// Columns that are all gaps are skipped, so the result is a plain
  /// ungapped sequence usable as the experiment's representative
  /// "execution sequence".
  std::vector<Symbol> consensus() const;

  /// Internal/builder access.
  std::vector<std::vector<Symbol>>& rows() { return rows_; }
  const std::vector<std::vector<Symbol>>& rows() const { return rows_; }

private:
  std::vector<std::vector<Symbol>> rows_;
};

/// Centre-star MSA over `sequences`. The centre is the longest sequence
/// (ties -> lowest index). Row order matches input order. An empty input
/// yields an empty alignment; empty member sequences become all-gap rows.
/// `pool` (optional) parallelises the per-member alignments and `engine`
/// forces a pairwise DP (tests and benchmarks) — the result is
/// bit-identical for any pool, thread count and engine.
MultipleAlignment star_align(const std::vector<std::vector<Symbol>>& sequences,
                             const AlignmentScores& scores = {},
                             ThreadPool* pool = nullptr,
                             AlignmentEngine engine = AlignmentEngine::kAuto);

}  // namespace perftrack::align
