#pragma once
// Exact spatial queries over a PointSet: a kd-tree whose nodes carry
// bounding boxes. It answers the pipeline's three questions about one
// metric space: the displacement evaluator's nearest neighbour, DBSCAN's
// eps-neighbourhood when the grid engine does not apply, and autotune's
// k nearest neighbours.
//
// The displacement evaluator asks, for every clustered burst of one frame,
// which point of the next frame is nearest. Its clouds are DBSCAN clusters:
// tight blobs with empty space between them, and queries that often start
// far outside the blob that answers them. A uniform grid sized for evenly
// spread points puts hundreds of points in each occupied cell of such a
// cloud, and a kd-tree that prunes only on the split plane descends into
// subtrees whose points all lie far from the query. NnTree splits at the
// median of the widest axis and keeps every node's exact bounding box; a
// query descends into the nearer child first and skips a subtree only when
// its box is strictly farther than the query's bound: the best distance
// found so far, the current k-th candidate's, or the radius.
//
// Layout: an implicit complete binary tree. Node k's children are 2k+1 and
// 2k+2 and every leaf sits at the same depth, so a node stores nothing but
// its box, and its slot range is recomputed on the way down. The leaf
// coordinates are copied into one column per axis in tree order, so a leaf
// scan reads consecutive doubles. The source PointSet is referenced, not
// copied: a hint's coordinates are read from it.
//
// Exactness: a box's squared distance is built from the exact per-axis
// min/max of its points with the same operations, in the same axis order,
// as a point's squared distance (and as geom::squared_distance). Floating-
// point subtraction, squaring and addition are monotone, so a box never
// reads farther than any point inside it, and visiting every box with
// box_d2 <= bound keeps every point that can still change the answer
// reachable, equally distant points with lower row indexes included. This
// relies on no FMA contraction, which the build does not enable.
//
// Contracts, pinned by tests/geom/test_nn_tree.cpp against brute force and
// the reference kd-tree that the tests keep under tests/testing/:
//   * nearest(): the row of the closest point, ties broken by the lowest
//     row;
//   * radius_query(): every row whose squared distance is <= radius^2, in
//     ascending row order;
//   * k_nearest(): the k first rows ordered by (squared distance, row),
//     where a NaN distance orders as +infinity.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/pointset.hpp"

namespace perftrack {
class ThreadPool;
}

namespace perftrack::geom {

class NnTree {
public:
  /// Build over `points`, which must outlive the tree and stay unchanged.
  /// On a `pool` with workers, a large build splits its top levels, then
  /// builds the subtrees below them in parallel: the same tree.
  explicit NnTree(const PointSet& points, ThreadPool* pool = nullptr);

  std::size_t size() const { return row_.size(); }
  bool empty() const { return row_.empty(); }
  std::size_t dims() const { return points_.dims(); }

  /// "No hint" sentinel for the warm-started overload below.
  static constexpr std::size_t kNoHint = static_cast<std::size_t>(-1);

  /// Row index of the nearest point to `query`, ties broken by the lowest
  /// row index. Throws PreconditionError when the tree is empty or the
  /// query has the wrong dimension.
  std::size_t nearest(std::span<const double> query) const {
    return nearest(query, kNoHint);
  }

  /// Same contract, warm-started: `hint` (a row index, or kNoHint) seeds
  /// the best distance with that point's, so the descent skips more boxes.
  /// The hint never changes the answer, so callers may pass any row,
  /// typically the previous query's answer.
  std::size_t nearest(std::span<const double> query, std::size_t hint) const;

  /// Every row within Euclidean `radius` of `query` (inclusive), in
  /// ascending order, into `out` (cleared first). An empty tree gives no
  /// rows. Throws PreconditionError when the query has the wrong dimension
  /// or the radius is negative.
  void radius_query(std::span<const double> query, double radius,
                    std::vector<std::size_t>& out) const;

  /// The min(k, size()) rows nearest to `query`, ordered by (squared
  /// distance, row). Throws PreconditionError when the query has the wrong
  /// dimension.
  std::vector<std::size_t> k_nearest(std::span<const double> query,
                                     std::size_t k) const;

private:
  template <typename Visitor>
  struct Walk;

  struct Subtree {
    std::size_t node, begin, end;  // a node and its slot range
  };

  /// Build `node` (slots [begin, end) at `level`) and its subtree; a node
  /// at level `cut` is appended to `deferred` instead.
  void build(std::size_t node, std::size_t begin, std::size_t end,
             std::size_t level, std::size_t cut,
             std::vector<Subtree>* deferred);

  const PointSet& points_;
  std::size_t depth_ = 0;            // every leaf is at this level
  std::vector<std::uint32_t> row_;   // [slot] -> row of the source
  std::vector<double> col_;          // [d * size() + slot]
  std::vector<double> box_;          // [node * 2 * dims + (0 | dims) + d]
};

}  // namespace perftrack::geom
