#pragma once
// Uniform-grid spatial index over a PointSet.
//
// DBSCAN's hot query is "everything within eps of this point". A tree
// answers it in O(log n + k) with scattered memory traffic; a uniform grid
// with cell edge on the order of eps answers it by scanning the point's
// own cell and the few cells in reach of it — a bounded, contiguous
// candidate set, which is the standard acceleration for dense
// low-dimensional DBSCAN (dbscan uses edge eps / sqrt(d), so points
// sharing a cell are always neighbours).
// Cells are stored CSR-style (one offset table plus one point-index array
// grouped by cell), built in two counting passes with no per-cell
// allocations.
//
// The cell table grows with prod over dims of (extent_d / cell + 1), so the
// structure only makes sense in low dimensions over bounded data (the
// pipeline's normalised metric spaces are 2-D or 3-D in [0,1]^d). Callers
// should veto degenerate configurations with plan_cells() and fall back to
// a tree — dbscan() does exactly that.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "geom/pointset.hpp"

namespace perftrack::geom {

class GridIndex {
public:
  /// Hard ceiling on the cell table, enforced by the constructor (cell ids
  /// are stored as uint32). Callers wanting a graceful fallback instead of
  /// an error should veto with plan_cells() first.
  static constexpr std::size_t kMaxCellCount = std::size_t{1} << 32;

  /// Build over `points` with cubic cells of edge `cell_size` (> 0); the
  /// PointSet must outlive the index. Throws when the data spread and cell
  /// size would need more than kMaxCellCount cells.
  GridIndex(const PointSet& points, double cell_size);

  std::size_t size() const { return point_of_.size(); }
  std::size_t cell_count() const { return cells_; }

  /// Cells a grid over `points` with `cell_size` would allocate, or 0 when
  /// that exceeds `limit` (or the point set is degenerate) — a cheap veto
  /// before committing to the build.
  static std::size_t plan_cells(const PointSet& points, double cell_size,
                                std::size_t limit);

  /// Point indices bucketed in `cell`, ascending.
  std::span<const std::uint32_t> bucket(std::size_t cell) const {
    return {point_of_.data() + cell_start_[cell],
            point_of_.data() + cell_start_[cell + 1]};
  }

  /// Visit every OTHER non-empty cell whose bounding box could hold a point
  /// within `radius` of a point in `cell` (box reach of ceil(radius /
  /// cell_size) per dim). `cell` itself is not visited; cells come in
  /// ascending id order.
  void for_each_cell_in_reach(
      std::size_t cell, double radius,
      const std::function<void(std::size_t)>& visit) const;

private:
  std::size_t cell_of(std::span<const double> p) const;

  /// Cells of box reach covering `radius`, clamped to the grid span per
  /// dim (a safe cast: unclamped, a huge radius / cell ratio would be UB
  /// to convert, and any reach that long already covers every cell).
  std::ptrdiff_t reach_cells(double radius) const;

  const PointSet& points_;
  double cell_size_ = 0.0;
  std::vector<double> lo_;          // per-dim lower bound of the data
  std::vector<std::size_t> res_;    // per-dim cell resolution (>= 1)
  std::vector<std::size_t> stride_; // per-dim linearisation stride
  std::size_t cells_ = 0;

  // CSR buckets: points of cell c are point_of_[cell_start_[c] ..
  // cell_start_[c + 1]), ascending within each cell.
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> point_of_;
};

}  // namespace perftrack::geom
