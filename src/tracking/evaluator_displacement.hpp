#pragma once
// Displacement evaluator (paper §3.1, Fig. 3).
//
// Cross-classifies every clustered burst of frame A into the clusters of
// frame B (nearest neighbour in the common scale-normalised space) and
// vice versa. Cell (i, j) of the A->B matrix is the fraction of A_i's
// bursts whose nearest counterpart belongs to B_j. Short displacements
// dominate when behaviour is stable; splits appear as one row distributing
// over several columns.
//
// Engine: each cloud's nearest-neighbour index is a box-pruned kd-tree
// (geom::NnTree), built the first time a classification sweep has rows
// to query against that cloud. Most rows never need one: a cluster-level
// short-circuit resolves every row of a source cluster whose nearest target
// cluster is provable from the clusters' bounding boxes alone. On the
// caller's thread pool the two directions run as one loop, each tree
// builds its subtrees in parallel, and the sweep over the remaining rows
// is chunked with a deterministic integer-count fold, so the matrices are
// bit-identical for every thread count, including 1.

#include <memory>
#include <mutex>
#include <vector>

#include "cluster/frame.hpp"
#include "geom/nn_tree.hpp"
#include "tracking/correlation.hpp"
#include "tracking/scale.hpp"

namespace perftrack {
class ThreadPool;
}

namespace perftrack::tracking {

/// One frame's clustered points in the common scale-normalised space, the
/// per-cluster geometry the short-circuit reads, and the nearest-neighbour
/// index over the points. An interior frame of a sequence is classified
/// against by both of its adjacent pairs; caching the cloud here (the
/// session builds one per frame) builds it, and its index, once instead of
/// twice. Pinned in memory: the index references `points_`.
class FrameCloud {
public:
  FrameCloud(const cluster::Frame& frame, const ScaleNormalization& scale);
  FrameCloud(const FrameCloud&) = delete;
  FrameCloud& operator=(const FrameCloud&) = delete;

  const geom::PointSet& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  cluster::ObjectId cluster_of(std::size_t i) const { return cluster_of_[i]; }

  /// Per-cluster geometry, precomputed for the classification sweep's
  /// cluster-level short-circuit: the rows of each cluster, and the
  /// cluster's axis-aligned bounding box (flattened [cluster * dims + d]).
  /// Clusters with no rows have empty lists and inverted boxes.
  std::size_t cluster_count() const { return cluster_rows_.size(); }
  const std::vector<std::uint32_t>& cluster_rows(std::size_t c) const {
    return cluster_rows_[c];
  }
  const std::vector<double>& cluster_lo() const { return cluster_lo_; }
  const std::vector<double>& cluster_hi() const { return cluster_hi_; }

  /// The nearest-neighbour index over points(), built on the first call,
  /// on `pool` when it has workers. Safe to call from several threads at
  /// once: exactly one builds it, the others wait for that build.
  const geom::NnTree& index(ThreadPool* pool) const;

private:
  geom::PointSet points_;  ///< clustered (non-noise) rows only
  std::vector<cluster::ObjectId> cluster_of_;
  std::vector<std::vector<std::uint32_t>> cluster_rows_;
  std::vector<double> cluster_lo_, cluster_hi_;  ///< [cluster * dims + d]
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<geom::NnTree> index_;
};

struct DisplacementResult {
  CorrelationMatrix a_to_b;  ///< rows: A objects, cols: B objects
  CorrelationMatrix b_to_a;  ///< rows: B objects, cols: A objects
};

/// `outlier_threshold` zeroes cells below it (the paper's 5% rule).
/// `pool` (optional) parallelises the two directions, the index builds and
/// each classification sweep; output is bit-identical for any thread count.
DisplacementResult evaluate_displacement(
    const cluster::Frame& frame_a, const cluster::Frame& frame_b,
    const ScaleNormalization& scale, double outlier_threshold = 0.05,
    ThreadPool* pool = nullptr);

/// As above but over pre-built per-frame clouds (the tracker's cache); the
/// clouds must have been built from these frames with the sequence scale.
DisplacementResult evaluate_displacement(const cluster::Frame& frame_a,
                                         const FrameCloud& cloud_a,
                                         const cluster::Frame& frame_b,
                                         const FrameCloud& cloud_b,
                                         double outlier_threshold = 0.05,
                                         ThreadPool* pool = nullptr);

}  // namespace perftrack::tracking
