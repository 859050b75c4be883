#pragma once
// DBSCAN density-based clustering.
//
// The object-recognition step of the pipeline (paper §2, following González
// et al. [7, 9]): CPU bursts that are close in the normalised metric space
// form dense clouds — one behavioural trend each — while sparse points are
// noise. Deterministic: seeds are visited in index order, so labels are
// reproducible.
//
// Neighbourhood engine: a uniform grid with cell edge eps / sqrt(d), so
// any two points sharing a cell are eps-neighbours. Core points are found
// by per-cell neighbour counting — a cell with >= min_pts occupants is
// all-core with no distance tests, sparse cells count candidates from the
// cells in reach with an early exit at min_pts — then clusters form by
// merging core components across neighbouring cells and attaching border
// points, the standard acceleration for dense low-dimensional DBSCAN.
// Inputs with more than 3 dimensions, or whose grid would need more than
// 2^20 cells, take the textbook per-point BFS over geom::NnTree radius
// queries instead. Labels do not depend on the engine: both are compared
// against the textbook BFS over a reference kd-tree
// (tests/testing/dbscan_reference.hpp) in tests/cluster/test_dbscan.cpp.

#include <cstdint>
#include <vector>

#include "geom/pointset.hpp"

namespace perftrack::cluster {

inline constexpr std::int32_t kNoise = -1;

struct DbscanParams {
  /// Neighbourhood radius in the normalised [0,1]^d space.
  double eps = 0.04;
  /// Minimum neighbourhood size (including the point itself) for a core
  /// point.
  std::size_t min_pts = 5;
};

struct DbscanResult {
  std::vector<std::int32_t> labels;  ///< per point: cluster id or kNoise
  std::int32_t cluster_count = 0;

  std::size_t noise_count() const;
};

/// Cluster `points` (expected in comparable per-dimension scales, typically
/// [0,1]^d from Transform::apply).
DbscanResult dbscan(const geom::PointSet& points, const DbscanParams& params);

}  // namespace perftrack::cluster
