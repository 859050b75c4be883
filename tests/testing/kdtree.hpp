#pragma once
// Reference kd-tree, the oracle for geom::NnTree and for the engines built
// on it (tests/testing/dbscan_reference.hpp, displacement_reference.hpp).
//
// A textbook kd-tree: indices into the backing PointSet in one node array,
// split at the median of the widest-spread dimension, pruned only on the
// split plane. Leaves hold up to `leaf_size` points, sorted by index, and
// are scanned linearly. Header-only, so the benchmarks that compare against
// it build without the test tree.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "geom/pointset.hpp"

namespace perftrack::testing {

class KdTree {
public:
  /// Build over `points`; the PointSet must outlive the tree.
  explicit KdTree(const geom::PointSet& points, std::size_t leaf_size = 16)
      : points_(points), leaf_size_(std::max<std::size_t>(1, leaf_size)) {
    index_.resize(points.size());
    std::iota(index_.begin(), index_.end(), 0);
    if (!index_.empty()) {
      nodes_.reserve(2 * index_.size() / leaf_size_ + 2);
      root_ = build(0, index_.size());
    }
  }

  std::size_t size() const { return index_.size(); }

  /// Index of the nearest point to `query`, ties broken by the lower index;
  /// `size()` must be > 0.
  std::size_t nearest(std::span<const double> query) const {
    PT_REQUIRE(size() > 0, "nearest() on empty tree");
    PT_REQUIRE(query.size() == points_.dims(), "query dimension mismatch");
    double best_sq = std::numeric_limits<double>::infinity();
    std::size_t best_idx = index_[0];
    search_nearest(root_, query, best_sq, best_idx);
    return best_idx;
  }

  /// All point indices within Euclidean `radius` of `query` (inclusive
  /// boundary), in ascending index order.
  std::vector<std::size_t> radius_query(std::span<const double> query,
                                        double radius) const {
    PT_REQUIRE(query.size() == points_.dims(), "query dimension mismatch");
    PT_REQUIRE(radius >= 0.0, "radius must be non-negative");
    std::vector<std::size_t> out;
    if (root_ < 0) return out;
    search_radius(root_, query, radius * radius, out);
    std::sort(out.begin(), out.end());
    return out;
  }

private:
  struct Node {
    // Leaf: [begin, end) range in index_. Internal: split dim/value, kids.
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint16_t split_dim = 0;
    double split_value = 0.0;
    bool is_leaf() const { return left < 0; }
  };

  std::int32_t leaf(Node node) {
    std::sort(index_.begin() + node.begin, index_.begin() + node.end);
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }

  std::int32_t build(std::size_t begin, std::size_t end) {
    Node node;
    node.begin = static_cast<std::uint32_t>(begin);
    node.end = static_cast<std::uint32_t>(end);
    if (end - begin <= leaf_size_) return leaf(node);

    // Split along the dimension with the widest spread in this range.
    const std::size_t dims = points_.dims();
    std::vector<double> lo(dims, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dims, -std::numeric_limits<double>::infinity());
    for (std::size_t i = begin; i < end; ++i) {
      auto p = points_[index_[i]];
      for (std::size_t d = 0; d < dims; ++d) {
        lo[d] = std::min(lo[d], p[d]);
        hi[d] = std::max(hi[d], p[d]);
      }
    }
    std::size_t split_dim = 0;
    double best_spread = -1.0;
    for (std::size_t d = 0; d < dims; ++d) {
      if (hi[d] - lo[d] > best_spread) {
        best_spread = hi[d] - lo[d];
        split_dim = d;
      }
    }
    // All points identical in every dimension: keep them as one leaf.
    if (best_spread <= 0.0) return leaf(node);

    const std::size_t mid = begin + (end - begin) / 2;
    std::nth_element(index_.begin() + static_cast<std::ptrdiff_t>(begin),
                     index_.begin() + static_cast<std::ptrdiff_t>(mid),
                     index_.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::size_t a, std::size_t b) {
                       return points_[a][split_dim] < points_[b][split_dim];
                     });
    node.split_dim = static_cast<std::uint16_t>(split_dim);
    node.split_value = points_[index_[mid]][split_dim];

    // Reserve this node's slot before recursing so children get stable ids.
    nodes_.push_back(node);
    const auto self = static_cast<std::size_t>(nodes_.size() - 1);
    const std::int32_t left = build(begin, mid);
    const std::int32_t right = build(mid, end);
    nodes_[self].left = left;
    nodes_[self].right = right;
    return static_cast<std::int32_t>(self);
  }

  void search_nearest(std::int32_t node_id, std::span<const double> query,
                      double& best_sq, std::size_t& best_idx) const {
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        const std::size_t idx = index_[i];
        const double d2 = geom::squared_distance(query, points_[idx]);
        if (d2 < best_sq || (d2 == best_sq && idx < best_idx)) {
          best_sq = d2;
          best_idx = idx;
        }
      }
      return;
    }
    const double diff = query[node.split_dim] - node.split_value;
    search_nearest(diff < 0.0 ? node.left : node.right, query, best_sq,
                   best_idx);
    if (diff * diff <= best_sq)
      search_nearest(diff < 0.0 ? node.right : node.left, query, best_sq,
                     best_idx);
  }

  void search_radius(std::int32_t node_id, std::span<const double> query,
                     double radius_sq, std::vector<std::size_t>& out) const {
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::uint32_t i = node.begin; i < node.end; ++i)
        if (geom::squared_distance(query, points_[index_[i]]) <= radius_sq)
          out.push_back(index_[i]);
      return;
    }
    const double diff = query[node.split_dim] - node.split_value;
    search_radius(diff < 0.0 ? node.left : node.right, query, radius_sq, out);
    if (diff * diff <= radius_sq)
      search_radius(diff < 0.0 ? node.right : node.left, query, radius_sq,
                    out);
  }

  const geom::PointSet& points_;
  std::size_t leaf_size_;
  std::vector<std::size_t> index_;  // permutation of point indices
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace perftrack::testing
