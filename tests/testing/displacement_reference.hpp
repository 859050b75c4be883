#pragma once
// Reference displacement classification, the oracle for the production
// sweep (tracking/evaluator_displacement.cpp).
//
// Every clustered row of one cloud is classified by KdTree::nearest
// (testing/kdtree.hpp) over the other cloud, one row at a time: no
// cluster-level short-circuit, no lazily built index, no chunking. The counts are turned into fractions
// the way the production sweep does it, so the two must agree bitwise.
// The identity tests and bench/perf_displacement compare against it.

#include <cstdint>
#include <vector>

#include "testing/kdtree.hpp"
#include "tracking/evaluator_displacement.hpp"

namespace perftrack::testing {

inline tracking::CorrelationMatrix reference_classify(
    const tracking::FrameCloud& from, std::size_t from_count,
    const tracking::FrameCloud& to, std::size_t to_count) {
  tracking::CorrelationMatrix m(from_count, to_count);
  if (from.empty() || to.empty()) return m;
  const KdTree tree(to.points());
  std::vector<std::uint64_t> total(from_count * to_count, 0);
  for (std::size_t row = 0; row < from.points().size(); ++row) {
    const std::size_t nearest = tree.nearest(from.points()[row]);
    const auto from_id = static_cast<std::size_t>(from.cluster_of(row));
    const auto to_id = static_cast<std::size_t>(to.cluster_of(nearest));
    ++total[from_id * to_count + to_id];
  }
  for (std::size_t i = 0; i < from_count; ++i) {
    std::uint64_t row_total = 0;
    for (std::size_t j = 0; j < to_count; ++j)
      row_total += total[i * to_count + j];
    if (row_total == 0) continue;
    for (std::size_t j = 0; j < to_count; ++j)
      m.set(i, j,
            static_cast<double>(total[i * to_count + j]) /
                static_cast<double>(row_total));
  }
  return m;
}

/// Both directions of one pair, thresholded like evaluate_displacement.
inline tracking::DisplacementResult reference_displacement(
    const cluster::Frame& frame_a, const tracking::FrameCloud& cloud_a,
    const cluster::Frame& frame_b, const tracking::FrameCloud& cloud_b,
    double outlier_threshold = 0.05) {
  tracking::DisplacementResult out;
  out.a_to_b = reference_classify(cloud_a, frame_a.object_count(), cloud_b,
                                  frame_b.object_count());
  out.b_to_a = reference_classify(cloud_b, frame_b.object_count(), cloud_a,
                                  frame_a.object_count());
  out.a_to_b.threshold(outlier_threshold);
  out.b_to_a.threshold(outlier_threshold);
  return out;
}

}  // namespace perftrack::testing
