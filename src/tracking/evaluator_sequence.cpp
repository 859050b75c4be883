#include "tracking/evaluator_sequence.hpp"

#include <vector>

#include "align/nw.hpp"
#include "common/failpoint.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::tracking {

CorrelationMatrix evaluate_sequence(const cluster::Frame& frame_a,
                                    const FrameAlignment& alignment_a,
                                    const cluster::Frame& frame_b,
                                    const FrameAlignment& alignment_b,
                                    const RelationSet& pivots,
                                    double outlier_threshold) {
  PT_SPAN("evaluator_sequence");
  PT_FAILPOINT("evaluator_sequence");
  const std::size_t n = frame_a.object_count();
  const std::size_t m = frame_b.object_count();
  CorrelationMatrix out(n, m);

  const std::vector<align::Symbol>& seq_a = alignment_a.consensus();
  const std::vector<align::Symbol>& seq_b = alignment_b.consensus();
  if (seq_a.empty() || seq_b.empty()) return out;

  // Which symbols participate in any pivot relation.
  std::vector<bool> pivot_left(n, false), pivot_right(m, false);
  for (const Relation& rel : pivots.relations) {
    for (ObjectId a : rel.left)
      if (a >= 0 && static_cast<std::size_t>(a) < n)
        pivot_left[static_cast<std::size_t>(a)] = true;
    for (ObjectId b : rel.right)
      if (b >= 0 && static_cast<std::size_t>(b) < m)
        pivot_right[static_cast<std::size_t>(b)] = true;
  }

  auto score = [&](align::Symbol a, align::Symbol b) -> double {
    bool known_a = a >= 0 && static_cast<std::size_t>(a) < n &&
                   pivot_left[static_cast<std::size_t>(a)];
    bool known_b = b >= 0 && static_cast<std::size_t>(b) < m &&
                   pivot_right[static_cast<std::size_t>(b)];
    if (known_a && known_b)
      return pivots.related(a, b) ? 3.0 : -2.0;
    if (known_a || known_b) return -1.0;  // known against unknown: unlikely
    return 0.5;  // two unknowns: alignable, mild reward
  };
  // The pivot score above never exceeds the pivot-match reward, which makes
  // 3.0 a sound per-cell bound for the banded identity certificate.
  align::PairAlignment pa = align::needleman_wunsch(
      seq_a, seq_b, score, /*gap_penalty=*/-1.0, /*max_pair_score=*/3.0);

  std::vector<std::size_t> occurrences(n, 0);
  for (std::size_t c = 0; c < pa.length(); ++c) {
    align::Symbol a = pa.a[c];
    align::Symbol b = pa.b[c];
    if (a == align::kGap || b == align::kGap) continue;
    if (a < 0 || static_cast<std::size_t>(a) >= n) continue;
    if (b < 0 || static_cast<std::size_t>(b) >= m) continue;
    out.add(static_cast<std::size_t>(a), static_cast<std::size_t>(b), 1.0);
    ++occurrences[static_cast<std::size_t>(a)];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (occurrences[i] == 0) continue;
    for (std::size_t j = 0; j < m; ++j)
      out.set(i, j, out.at(i, j) / static_cast<double>(occurrences[i]));
  }
  out.threshold(outlier_threshold);
  if (obs::enabled()) {
    double links = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < m; ++j)
        if (out.at(i, j) > 0.0) ++links;
    PT_COUNTER("sequence_links", links);
  }
  return out;
}

}  // namespace perftrack::tracking
