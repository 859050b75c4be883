#include "geom/nn_tree.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace perftrack::geom {

namespace {

/// Most points in one leaf. Leaves then hold 16-32 points, which keeps
/// the boxes (2 * dims doubles per node) under 4 B per point in 2-D;
/// 16-point leaves cost up to twice that and measured no faster.
constexpr std::size_t kLeafSize = 32;

}  // namespace

NnTree::NnTree(const PointSet& points) : points_(points) {
  const std::size_t n = points.size();
  PT_REQUIRE(n < 0xffffffffull,
             "nearest-neighbour tree limited to < 2^32 points");
  if (n == 0) return;
  const std::size_t dims = points.dims();

  // A node of s points splits into floor(s/2) and ceil(s/2), so the
  // largest node of level k holds ceil(n / 2^k) points. Stop at the first
  // level where that fits a leaf; every leaf then holds at least half a
  // leaf, and the tree is complete.
  while (((n - 1) >> depth_) + 1 > kLeafSize) ++depth_;
  row_.resize(n);
  std::iota(row_.begin(), row_.end(), 0u);
  box_.resize(((std::size_t{2} << depth_) - 1) * 2 * dims);
  build(0, 0, n, 0);

  col_.resize(dims * n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto p = points[row_[s]];
    for (std::size_t d = 0; d < dims; ++d) col_[d * n + s] = p[d];
  }
}

void NnTree::build(std::size_t node, std::size_t begin, std::size_t end,
                   std::size_t level) {
  const std::size_t dims = points_.dims();
  const std::span<const double> raw = points_.raw();
  double* lo = box_.data() + node * 2 * dims;
  double* hi = lo + dims;
  std::fill(lo, hi, std::numeric_limits<double>::infinity());
  std::fill(hi, hi + dims, -std::numeric_limits<double>::infinity());
  for (std::size_t s = begin; s < end; ++s) {
    const double* p = raw.data() + row_[s] * dims;
    for (std::size_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  if (level == depth_) return;

  std::size_t axis = 0;
  for (std::size_t d = 1; d < dims; ++d)
    if (hi[d] - lo[d] > hi[axis] - lo[axis]) axis = d;
  const std::size_t mid = begin + (end - begin) / 2;
  std::nth_element(row_.begin() + static_cast<std::ptrdiff_t>(begin),
                   row_.begin() + static_cast<std::ptrdiff_t>(mid),
                   row_.begin() + static_cast<std::ptrdiff_t>(end),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return raw[a * dims + axis] < raw[b * dims + axis];
                   });
  build(2 * node + 1, begin, mid, level + 1);
  build(2 * node + 2, mid, end, level + 1);
}

/// One query's state. Distances are accumulated axis by axis from 0.0 in
/// both box_d2 and scan, the order the exactness argument in the header
/// relies on.
struct NnTree::Search {
  const NnTree& tree;
  std::span<const double> query;
  double best_sq;
  std::size_t best;

  double box_d2(std::size_t node) const {
    const std::size_t dims = query.size();
    const double* lo = tree.box_.data() + node * 2 * dims;
    const double* hi = lo + dims;
    double d2 = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double gap = query[d] < lo[d]   ? lo[d] - query[d]
                         : query[d] > hi[d] ? query[d] - hi[d]
                                            : 0.0;
      d2 += gap * gap;
    }
    return d2;
  }

  void consider(double d2, std::size_t row) {
    if (d2 < best_sq || (d2 == best_sq && row < best)) {
      best_sq = d2;
      best = row;
    }
  }

  void scan(std::size_t begin, std::size_t end) {
    const std::size_t n = tree.size();
    const double* col = tree.col_.data();
    const std::uint32_t* rows = tree.row_.data();
    if (query.size() == 2) {
      // The pipeline's 2-D metric space: two contiguous columns.
      const double qx = query[0], qy = query[1];
      for (std::size_t s = begin; s < end; ++s) {
        const double dx = col[s] - qx, dy = col[n + s] - qy;
        consider(dx * dx + dy * dy, rows[s]);
      }
      return;
    }
    for (std::size_t s = begin; s < end; ++s) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < query.size(); ++d) {
        const double diff = col[d * n + s] - query[d];
        d2 += diff * diff;
      }
      consider(d2, rows[s]);
    }
  }

  /// Visit `node` (slots [begin, end) at `level`): the nearer child first,
  /// and a child only when its box is not strictly farther than the best.
  /// '!(x > best)' rather than 'x <= best' also visits a NaN box.
  void descend(std::size_t node, std::size_t begin, std::size_t end,
               std::size_t level) {
    if (level == tree.depth_) {
      scan(begin, end);
      return;
    }
    const std::size_t mid = begin + (end - begin) / 2;
    const std::size_t left = 2 * node + 1, right = left + 1;
    const double left_d2 = box_d2(left), right_d2 = box_d2(right);
    if (right_d2 < left_d2) {
      if (!(right_d2 > best_sq)) descend(right, mid, end, level + 1);
      if (!(left_d2 > best_sq)) descend(left, begin, mid, level + 1);
    } else {
      if (!(left_d2 > best_sq)) descend(left, begin, mid, level + 1);
      if (!(right_d2 > best_sq)) descend(right, mid, end, level + 1);
    }
  }
};

std::size_t NnTree::nearest(std::span<const double> query,
                            std::size_t hint) const {
  PT_REQUIRE(!empty(), "nearest() on empty tree");
  PT_REQUIRE(query.size() == dims(), "query dimension mismatch");
  Search search{*this, query, std::numeric_limits<double>::infinity(),
                row_[0]};
  if (hint < size())
    search.consider(squared_distance(points_[hint], query), hint);
  search.descend(0, 0, size(), 0);
  return search.best;
}

}  // namespace perftrack::geom
