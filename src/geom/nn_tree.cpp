#include "geom/nn_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace perftrack::geom {

namespace {

/// Most points in one leaf. Leaves then hold 16-32 points, which keeps
/// the boxes (2 * dims doubles per node) under 4 B per point in 2-D;
/// 16-point leaves cost up to twice that and measured no faster.
constexpr std::size_t kLeafSize = 32;

/// Fewest points whose build fans out over a pool.
constexpr std::size_t kParallelBuildPoints = 4096;

}  // namespace

NnTree::NnTree(const PointSet& points, ThreadPool* pool) : points_(points) {
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
  col_.resize(dims * n);

  // Split the levels above `top`, then build each subtree below them and
  // copy its slots into the leaf columns as one loop index (at least two
  // subtrees per worker on a pool). A subtree gets the serial build's
  // nth_element calls on the same slots, so the tree is the same.
  std::size_t top = 0;
  if (pool != nullptr && pool->thread_count() > 1 &&
      n >= kParallelBuildPoints)
    while (top < depth_ && (std::size_t{1} << top) < 2 * pool->thread_count())
      ++top;
  std::vector<Subtree> subtrees;
  build(0, 0, n, 0, top, &subtrees);
  const auto finish = [&](std::size_t k) {
    const auto [node, begin, end] = subtrees[k];
    build(node, begin, end, top, depth_ + 1, nullptr);
    for (std::size_t s = begin; s < end; ++s) {
      const auto p = points[row_[s]];
      for (std::size_t d = 0; d < dims; ++d) col_[d * n + s] = p[d];
    }
  };
  if (pool != nullptr)
    pool->parallel_for(0, subtrees.size(), finish);
  else
    finish(0);
}

void NnTree::build(std::size_t node, std::size_t begin, std::size_t end,
                   std::size_t level, std::size_t cut,
                   std::vector<Subtree>* deferred) {
  if (level == cut) {
    deferred->push_back({node, begin, end});
    return;
  }
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
  build(2 * node + 1, begin, mid, level + 1, cut, deferred);
  build(2 * node + 2, mid, end, level + 1, cut, deferred);
}

/// One query's walk, shared by the three queries. The visitor supplies
/// bound(), the squared distance beyond which a box is skipped, and
/// take(d2, row), called for every point of a visited leaf. Distances are
/// accumulated axis by axis from 0.0 in both box_d2 and scan, the order the
/// exactness argument in the header relies on.
template <typename Visitor>
struct NnTree::Walk {
  const NnTree& tree;
  std::span<const double> query;
  Visitor& visitor;

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

  void scan(std::size_t begin, std::size_t end) {
    const std::size_t n = tree.size();
    const double* col = tree.col_.data();
    const std::uint32_t* rows = tree.row_.data();
    if (query.size() == 2) {
      // The pipeline's 2-D metric space: two contiguous columns.
      const double qx = query[0], qy = query[1];
      for (std::size_t s = begin; s < end; ++s) {
        const double dx = col[s] - qx, dy = col[n + s] - qy;
        visitor.take(dx * dx + dy * dy, rows[s]);
      }
      return;
    }
    for (std::size_t s = begin; s < end; ++s) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < query.size(); ++d) {
        const double diff = col[d * n + s] - query[d];
        d2 += diff * diff;
      }
      visitor.take(d2, rows[s]);
    }
  }

  /// Visit `node` (slots [begin, end) at `level`): the nearer child first,
  /// and a child only when its box is not strictly farther than the bound.
  /// '!(x > bound)' rather than 'x <= bound' also visits a NaN box.
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
      if (!(right_d2 > visitor.bound())) descend(right, mid, end, level + 1);
      if (!(left_d2 > visitor.bound())) descend(left, begin, mid, level + 1);
    } else {
      if (!(left_d2 > visitor.bound())) descend(left, begin, mid, level + 1);
      if (!(right_d2 > visitor.bound())) descend(right, mid, end, level + 1);
    }
  }
};

namespace {

/// nearest(): the best point so far.
struct Nearest {
  double best_sq;
  std::size_t best;

  double bound() const { return best_sq; }
  void take(double d2, std::size_t row) {
    if (d2 < best_sq || (d2 == best_sq && row < best)) {
      best_sq = d2;
      best = row;
    }
  }
};

/// radius_query(): every point within the radius, in visiting order.
struct WithinRadius {
  double radius_sq;
  std::vector<std::size_t>& out;

  double bound() const { return radius_sq; }
  void take(double d2, std::size_t row) {
    if (d2 <= radius_sq) out.push_back(row);
  }
};

/// k_nearest(): the k best (distance, row) candidates in a max-heap whose
/// front is the worst kept one. A NaN distance is kept as +infinity, which
/// is what orders it after every number.
struct KNearest {
  std::size_t k;
  std::vector<std::pair<double, std::size_t>> heap;

  double bound() const {
    return heap.size() < k ? std::numeric_limits<double>::infinity()
                           : heap.front().first;
  }
  void take(double d2, std::size_t row) {
    const std::pair<double, std::size_t> candidate{
        std::isnan(d2) ? std::numeric_limits<double>::infinity() : d2, row};
    if (heap.size() < k) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end());
    } else if (candidate < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end());
    }
  }
};

}  // namespace

std::size_t NnTree::nearest(std::span<const double> query,
                            std::size_t hint) const {
  PT_REQUIRE(!empty(), "nearest() on empty tree");
  PT_REQUIRE(query.size() == dims(), "query dimension mismatch");
  Nearest best{std::numeric_limits<double>::infinity(), row_[0]};
  if (hint < size()) best.take(squared_distance(points_[hint], query), hint);
  Walk<Nearest>{*this, query, best}.descend(0, 0, size(), 0);
  return best.best;
}

void NnTree::radius_query(std::span<const double> query, double radius,
                          std::vector<std::size_t>& out) const {
  PT_REQUIRE(query.size() == dims(), "query dimension mismatch");
  PT_REQUIRE(radius >= 0.0, "radius must be non-negative");
  out.clear();
  if (empty()) return;
  WithinRadius within{radius * radius, out};
  Walk<WithinRadius>{*this, query, within}.descend(0, 0, size(), 0);
  std::sort(out.begin(), out.end());
}

std::vector<std::size_t> NnTree::k_nearest(std::span<const double> query,
                                           std::size_t k) const {
  PT_REQUIRE(query.size() == dims(), "query dimension mismatch");
  KNearest knn{std::min(k, size()), {}};
  std::vector<std::size_t> out;
  if (knn.k == 0) return out;
  knn.heap.reserve(knn.k);
  Walk<KNearest>{*this, query, knn}.descend(0, 0, size(), 0);
  std::sort_heap(knn.heap.begin(), knn.heap.end());
  out.reserve(knn.k);
  for (const auto& candidate : knn.heap) out.push_back(candidate.second);
  return out;
}

}  // namespace perftrack::geom
