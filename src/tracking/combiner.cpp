#include "tracking/combiner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/telemetry.hpp"
#include "tracking/evaluator_callstack.hpp"
#include "tracking/evaluator_sequence.hpp"
#include "tracking/evaluator_spmd.hpp"

namespace perftrack::tracking {

namespace {

/// Union-find restricted to the members of one wide relation, used to test
/// whether the sequence evidence splits it into smaller complete relations.
struct SubGraph {
  // Node encoding: left objects then right objects, positions within the
  // member vectors.
  std::vector<ObjectId> left, right;
  std::vector<std::size_t> parent;

  explicit SubGraph(const Relation& rel)
      : left(rel.left.begin(), rel.left.end()),
        right(rel.right.begin(), rel.right.end()),
        parent(left.size() + right.size()) {
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t x, std::size_t y) { parent[find(x)] = find(y); }

  std::size_t left_node(ObjectId a) const {
    auto it = std::find(left.begin(), left.end(), a);
    return static_cast<std::size_t>(it - left.begin());
  }
  std::size_t right_node(ObjectId b) const {
    auto it = std::find(right.begin(), right.end(), b);
    return left.size() + static_cast<std::size_t>(it - right.begin());
  }
};

}  // namespace

PairTracking track_pair(const cluster::Frame& frame_a,
                        const FrameAlignment& alignment_a,
                        const cluster::Frame& frame_b,
                        const FrameAlignment& alignment_b,
                        const ScaleNormalization& scale,
                        const TrackingParams& params,
                        const FrameCloud* cloud_a,
                        const FrameCloud* cloud_b,
                        ThreadPool* pool) {
  PT_SPAN("track_pair");
  const std::size_t n = frame_a.object_count();
  const std::size_t m = frame_b.object_count();
  PairTracking out;

  // Zero-seed the decision counters so every run report carries the keys,
  // even when an evaluator never fires.
  if (obs::enabled()) {
    PT_COUNTER("links_proposed", 0.0);
    PT_COUNTER("links_pruned_callstack", 0.0);
    PT_COUNTER("spmd_merges", 0.0);
    PT_COUNTER("spmd_merges_pruned_callstack", 0.0);
    PT_COUNTER("relations_split_by_sequence", 0.0);
    PT_COUNTER("sequence_attached", 0.0);
  }

  // --- Run the independent evaluators. ---
  if (params.use_displacement && cloud_a && cloud_b)
    out.displacement = evaluate_displacement(frame_a, *cloud_a, frame_b,
                                             *cloud_b,
                                             params.outlier_threshold, pool);
  else if (params.use_displacement)
    out.displacement = evaluate_displacement(frame_a, frame_b, scale,
                                             params.outlier_threshold, pool);
  else
    out.displacement = {CorrelationMatrix(n, m), CorrelationMatrix(m, n)};

  if (params.use_spmd) {
    out.spmd_a = evaluate_spmd(frame_a, alignment_a,
                               params.outlier_threshold);
    out.spmd_b = evaluate_spmd(frame_b, alignment_b,
                               params.outlier_threshold);
  } else {
    out.spmd_a = CorrelationMatrix(n, n);
    out.spmd_b = CorrelationMatrix(m, m);
  }

  out.callstack = evaluate_callstack(frame_a, frame_b,
                                     params.outlier_threshold);
  CorrelationMatrix callstack_aa =
      evaluate_callstack(frame_a, frame_a, params.outlier_threshold);
  CorrelationMatrix callstack_bb =
      evaluate_callstack(frame_b, frame_b, params.outlier_threshold);

  auto cross_ok = [&](std::size_t i, std::size_t j) {
    return !params.use_callstack || out.callstack.at(i, j) > 0.0;
  };

  // --- 1+3. Displacement links, call-stack pruned, reciprocally. ---
  RelationGraph graph(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      bool found_ab = out.displacement.a_to_b.at(i, j) > 0.0;
      bool found_ba = out.displacement.b_to_a.at(j, i) > 0.0;
      if (!found_ab && !found_ba) continue;
      PT_COUNTER("links_proposed", 1.0);
      if (cross_ok(i, j))
        graph.link(static_cast<ObjectId>(i), static_cast<ObjectId>(j));
      else
        PT_COUNTER("links_pruned_callstack", 1.0);
    }

  // --- 2+3. SPMD simultaneity merges within each frame. ---
  // Track the merged pairs: genuine simultaneous halves of one region must
  // never be separated by the later refinement step.
  std::vector<std::pair<ObjectId, ObjectId>> spmd_pairs_a, spmd_pairs_b;
  if (params.use_spmd) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        if (out.spmd_a.at(i, j) < params.spmd_threshold) continue;
        if (params.use_callstack && callstack_aa.at(i, j) <= 0.0) {
          PT_COUNTER("spmd_merges_pruned_callstack", 1.0);
          continue;
        }
        PT_COUNTER("spmd_merges", 1.0);
        graph.merge_left(static_cast<ObjectId>(i), static_cast<ObjectId>(j));
        spmd_pairs_a.emplace_back(static_cast<ObjectId>(i),
                                  static_cast<ObjectId>(j));
      }
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = i + 1; j < m; ++j) {
        if (out.spmd_b.at(i, j) < params.spmd_threshold) continue;
        if (params.use_callstack && callstack_bb.at(i, j) <= 0.0) {
          PT_COUNTER("spmd_merges_pruned_callstack", 1.0);
          continue;
        }
        PT_COUNTER("spmd_merges", 1.0);
        graph.merge_right(static_cast<ObjectId>(i), static_cast<ObjectId>(j));
        spmd_pairs_b.emplace_back(static_cast<ObjectId>(i),
                                  static_cast<ObjectId>(j));
      }
  }

  // --- 4. Extract the preliminary relations. ---
  RelationSet prelim = graph.components();

  if (!params.use_sequence) {
    out.relations = std::move(prelim);
    out.sequence = CorrelationMatrix(n, m);
    PT_COUNTER("relations", static_cast<double>(out.relations.size()));
    return out;
  }

  // --- 5. Sequence refinement, anchored at the univocal relations. ---
  RelationSet pivots;
  for (const Relation& rel : prelim.relations)
    if (rel.univocal()) pivots.relations.push_back(rel);
  out.sequence = evaluate_sequence(frame_a, alignment_a, frame_b,
                                   alignment_b, pivots,
                                   params.outlier_threshold);

  RelationSet refined;
  for (const Relation& rel : prelim.relations) {
    if (rel.univocal()) {
      refined.relations.push_back(rel);
      continue;
    }
    // Try to split the wide relation along the sequence evidence.
    SubGraph sub(rel);
    for (ObjectId a : rel.left)
      for (ObjectId b : rel.right)
        if (out.sequence.at(static_cast<std::size_t>(a),
                            static_cast<std::size_t>(b)) >=
                params.sequence_threshold &&
            cross_ok(static_cast<std::size_t>(a),
                     static_cast<std::size_t>(b)))
          sub.unite(sub.left_node(a), sub.right_node(b));
    // Simultaneous halves stay together regardless of the sequence.
    for (const auto& [x, y] : spmd_pairs_a)
      if (rel.left.count(x) && rel.left.count(y))
        sub.unite(sub.left_node(x), sub.left_node(y));
    for (const auto& [x, y] : spmd_pairs_b)
      if (rel.right.count(x) && rel.right.count(y))
        sub.unite(sub.right_node(x), sub.right_node(y));

    // Collect candidate parts.
    std::map<std::size_t, Relation> parts;
    for (ObjectId a : rel.left)
      parts[sub.find(sub.left_node(a))].left.insert(a);
    for (ObjectId b : rel.right)
      parts[sub.find(sub.right_node(b))].right.insert(b);

    bool splittable = parts.size() > 1;
    for (const auto& [root, part] : parts)
      if (part.left.empty() || part.right.empty()) splittable = false;

    if (splittable) {
      PT_LOG(Debug) << "split wide relation " << rel.describe() << " into "
                    << parts.size() << " parts";
      PT_COUNTER("relations_split_by_sequence", 1.0);
      for (auto& [root, part] : parts)
        refined.relations.push_back(std::move(part));
    } else {
      refined.relations.push_back(rel);
    }
  }

  // Attach unmatched objects where the sequence alignment pairs them.
  std::vector<ObjectId> still_left, still_right;
  std::vector<bool> right_used(m, false);
  for (ObjectId b : prelim.unmatched_right) {
    // Best left partner by sequence support.
    std::ptrdiff_t best_a = -1;
    double best = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double support = out.sequence.at(i, static_cast<std::size_t>(b));
      if (support >= params.sequence_threshold && support > best &&
          cross_ok(i, static_cast<std::size_t>(b))) {
        best = support;
        best_a = static_cast<std::ptrdiff_t>(i);
      }
    }
    if (best_a < 0) {
      still_right.push_back(b);
      continue;
    }
    auto a = static_cast<ObjectId>(best_a);
    if (std::find(prelim.unmatched_left.begin(), prelim.unmatched_left.end(),
                  a) != prelim.unmatched_left.end()) {
      // Both unmatched: new relation (may accrete more right objects).
      std::ptrdiff_t existing = refined.find_by_left(a);
      if (existing >= 0)
        refined.relations[static_cast<std::size_t>(existing)].right.insert(b);
      else
        refined.relations.push_back(Relation{{a}, {b}});
    } else {
      std::ptrdiff_t existing = refined.find_by_left(a);
      if (existing >= 0)
        refined.relations[static_cast<std::size_t>(existing)].right.insert(b);
      else {
        still_right.push_back(b);
        continue;
      }
    }
    right_used[static_cast<std::size_t>(b)] = true;
    PT_COUNTER("sequence_attached", 1.0);
  }
  for (ObjectId a : prelim.unmatched_left)
    if (refined.find_by_left(a) < 0) still_left.push_back(a);

  refined.unmatched_left = std::move(still_left);
  refined.unmatched_right = std::move(still_right);
  std::sort(refined.relations.begin(), refined.relations.end(),
            [](const Relation& x, const Relation& y) {
              return *x.left.begin() < *y.left.begin();
            });
  out.relations = std::move(refined);
  PT_COUNTER("relations", static_cast<double>(out.relations.size()));
  return out;
}

}  // namespace perftrack::tracking
