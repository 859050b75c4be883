#include "geom/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace perftrack::geom {

namespace {

/// Per-dim resolution of a grid spanning [lo, hi] with the given cell edge.
/// Saturates to SIZE_MAX when extent / cell is not safely convertible
/// (NaN/inf or beyond the integer range, UB to cast); any such resolution
/// is over every cell-count limit, so callers reject it via their
/// overflow checks rather than index with a garbage value.
std::size_t resolution(double lo, double hi, double cell) {
  double extent = hi - lo;
  if (!(extent > 0.0)) return 1;
  double cells = std::floor(extent / cell);
  if (!(cells < 9.0e18)) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(cells) + 1;
}

}  // namespace

std::size_t GridIndex::plan_cells(const PointSet& points, double cell_size,
                                  std::size_t limit) {
  if (!(cell_size > 0.0) || points.dims() == 0) return 0;
  if (points.empty()) return 1;
  const std::vector<double> lo = points.min_corner();
  const std::vector<double> hi = points.max_corner();
  std::size_t cells = 1;
  for (std::size_t d = 0; d < points.dims(); ++d) {
    const std::size_t res = resolution(lo[d], hi[d], cell_size);
    if (res != 0 && cells > limit / res) return 0;  // would overflow limit
    cells *= res;
  }
  return cells <= limit ? cells : 0;
}

GridIndex::GridIndex(const PointSet& points, double cell_size)
    : points_(points), cell_size_(cell_size) {
  PT_REQUIRE(cell_size > 0.0, "grid cell size must be positive");
  PT_REQUIRE(points.size() <= 0xffffffffull,
             "grid index limited to 2^32 points");
  const std::size_t dims = points.dims();
  const std::size_t n = points.size();

  lo_ = n == 0 ? std::vector<double>(dims, 0.0) : points.min_corner();
  const std::vector<double> hi =
      n == 0 ? std::vector<double>(dims, 0.0) : points.max_corner();
  res_.resize(dims);
  stride_.resize(dims);
  cells_ = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    res_[d] = resolution(lo_[d], hi[d], cell_size);
    stride_[d] = cells_;
    // Overflow-checked: widely spread data or a tiny cell size must fail
    // loudly here, not corrupt the strides and index out of bounds later.
    PT_REQUIRE(cells_ <= kMaxCellCount / res_[d],
               "grid cell table overflow: " + std::to_string(res_[d]) +
                   " cells along dim " + std::to_string(d) +
                   " exceed the limit; use a larger cell size or a kd-tree");
    cells_ *= res_[d];
  }
  if (dims == 0) cells_ = 1;

  // CSR buckets in two counting passes.
  std::vector<std::uint32_t> cell_of_point(n);
  cell_start_.assign(cells_ + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cell = static_cast<std::uint32_t>(cell_of(points[i]));
    cell_of_point[i] = cell;
    ++cell_start_[cell + 1];
  }
  for (std::size_t c = 0; c < cells_; ++c) cell_start_[c + 1] += cell_start_[c];
  point_of_.resize(n);
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  // Filling in point order keeps every bucket ascending, which is what
  // makes the grid engine's scans deterministic.
  for (std::size_t i = 0; i < n; ++i)
    point_of_[cursor[cell_of_point[i]]++] = static_cast<std::uint32_t>(i);
}

std::ptrdiff_t GridIndex::reach_cells(double radius) const {
  std::size_t longest = 1;
  for (std::size_t r : res_) longest = std::max(longest, r);
  const double cells = std::ceil(radius / cell_size_);
  if (!(cells < static_cast<double>(longest)))
    return static_cast<std::ptrdiff_t>(longest);
  return static_cast<std::ptrdiff_t>(cells);
}

std::size_t GridIndex::cell_of(std::span<const double> p) const {
  std::size_t cell = 0;
  for (std::size_t d = 0; d < p.size(); ++d) {
    double offset = std::floor((p[d] - lo_[d]) / cell_size_);
    std::size_t c = offset <= 0.0 ? 0 : static_cast<std::size_t>(offset);
    if (c >= res_[d]) c = res_[d] - 1;
    cell += c * stride_[d];
  }
  return cell;
}

void GridIndex::for_each_cell_in_reach(
    std::size_t cell, double radius,
    const std::function<void(std::size_t)>& visit) const {
  PT_REQUIRE(radius >= 0.0, "radius must be non-negative");
  const std::size_t dims = points_.dims();
  const std::ptrdiff_t reach = reach_cells(radius);
  if (dims == 0 || reach == 0) return;

  // Decode the cell's coordinates, then walk the clamped box around it.
  // Dim 0 has stride 1 and advances fastest, so ids come out ascending.
  std::vector<std::size_t> coords(dims), c_lo(dims), c_hi(dims),
      cursor(dims);
  std::size_t rest = cell;
  for (std::size_t d = dims; d-- > 0;) {
    coords[d] = rest / stride_[d];
    rest %= stride_[d];
  }
  for (std::size_t d = 0; d < dims; ++d) {
    const auto c = static_cast<std::ptrdiff_t>(coords[d]);
    c_lo[d] = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, c - reach));
    c_hi[d] = std::min(res_[d] - 1, coords[d] + static_cast<std::size_t>(reach));
    cursor[d] = c_lo[d];
  }
  for (;;) {
    std::size_t other = 0;
    for (std::size_t d = 0; d < dims; ++d) other += cursor[d] * stride_[d];
    if (other != cell && cell_start_[other] != cell_start_[other + 1])
      visit(other);
    std::size_t d = 0;
    while (d < dims && cursor[d] == c_hi[d]) {
      cursor[d] = c_lo[d];
      ++d;
    }
    if (d == dims) break;
    ++cursor[d];
  }
}

}  // namespace perftrack::geom
