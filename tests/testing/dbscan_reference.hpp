#pragma once
// Reference DBSCAN, the oracle for cluster::dbscan (cluster/dbscan.cpp).
//
// The textbook scan: seeds in index order, one radius query over the
// reference kd-tree per visited point, and each cluster expanded from its
// seed until no core point is left to visit. No grid, no cell-level
// shortcuts. Labels depend only on each point's neighbour set, so both
// production engines must reproduce these labels bitwise. The DBSCAN tests
// and bench/perf_clustering compare against it.

#include <cstdint>
#include <vector>

#include "cluster/dbscan.hpp"
#include "testing/kdtree.hpp"

namespace perftrack::testing {

inline cluster::DbscanResult reference_dbscan(
    const geom::PointSet& points, const cluster::DbscanParams& params) {
  constexpr std::int32_t kUnvisited = -2;
  const KdTree tree(points);
  cluster::DbscanResult result;
  std::vector<std::int32_t>& labels = result.labels;
  labels.assign(points.size(), kUnvisited);
  std::vector<std::size_t> frontier;
  for (std::size_t seed = 0; seed < points.size(); ++seed) {
    if (labels[seed] != kUnvisited) continue;
    const std::vector<std::size_t> seeds =
        tree.radius_query(points[seed], params.eps);
    if (seeds.size() < params.min_pts) {
      labels[seed] = cluster::kNoise;
      continue;
    }
    const std::int32_t id = result.cluster_count++;
    labels[seed] = id;
    frontier = seeds;
    while (!frontier.empty()) {
      const std::size_t p = frontier.back();
      frontier.pop_back();
      if (labels[p] == cluster::kNoise) labels[p] = id;  // border point
      if (labels[p] != kUnvisited) continue;
      labels[p] = id;
      const std::vector<std::size_t> neighbours =
          tree.radius_query(points[p], params.eps);
      if (neighbours.size() < params.min_pts) continue;
      // p is a core point: its whole neighbourhood joins the cluster.
      for (std::size_t q : neighbours)
        if (labels[q] == kUnvisited || labels[q] == cluster::kNoise)
          frontier.push_back(q);
    }
  }
  return result;
}

}  // namespace perftrack::testing
