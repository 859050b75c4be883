#include "cluster/dbscan.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "geom/grid_index.hpp"
#include "geom/nn_tree.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::cluster {

namespace {

// -2 = unvisited, kNoise = visited and (so far) noise, >=0 = cluster id.
constexpr std::int32_t kUnvisited = -2;

/// The grid engine only takes a grid this large; beyond it (high-dimensional
/// or wildly spread data) the tree wins on memory and build time.
constexpr std::size_t kMaxGridCells = std::size_t{1} << 20;

/// Tree engine: the textbook BFS, one radius query per visited point. Only
/// each point's neighbour set matters, so the labels are the grid
/// engine's for any input.
std::int32_t expand_tree(const geom::PointSet& points,
                         const DbscanParams& params,
                         std::vector<std::int32_t>& labels) {
  const geom::NnTree tree(points);
  const std::size_t n = points.size();
  std::vector<std::size_t> neighbours;
  std::vector<std::size_t> frontier;

  std::int32_t next_cluster = 0;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (labels[seed] != kUnvisited) continue;
    tree.radius_query(points[seed], params.eps, neighbours);
    if (neighbours.size() < params.min_pts) {
      labels[seed] = kNoise;
      continue;
    }
    // Start a new cluster and expand it breadth-first from the seed.
    const std::int32_t cluster = next_cluster++;
    labels[seed] = cluster;
    frontier.assign(neighbours.begin(), neighbours.end());
    while (!frontier.empty()) {
      std::size_t p = frontier.back();
      frontier.pop_back();
      if (labels[p] == kNoise) labels[p] = cluster;  // border point
      if (labels[p] != kUnvisited) continue;
      labels[p] = cluster;
      tree.radius_query(points[p], params.eps, neighbours);
      if (neighbours.size() >= params.min_pts) {
        // p is a core point: its whole neighbourhood joins the cluster.
        for (std::size_t q : neighbours)
          if (labels[q] == kUnvisited || labels[q] == kNoise)
            frontier.push_back(q);
      }
    }
  }
  return next_cluster;
}

/// Grid cell edge for the given eps: eps / sqrt(dims), shrunk by a hair so
/// the cell diagonal stays <= eps under floating-point rounding. With that
/// invariant two points sharing a cell are always eps-neighbours, which is
/// what lets the grid engine treat dense cells wholesale.
double grid_cell_size(double eps, std::size_t dims) {
  return eps / std::sqrt(static_cast<double>(dims)) * (1.0 - 1e-12);
}

/// Grid engine (Gunawan's exact construction). Equivalent to the serial
/// BFS because DBSCAN labels are order-independent facts of the eps-graph:
///   - a point is core iff it has >= min_pts neighbours (incl. itself);
///   - clusters are the connected components of the core points, and the
///     serial scan numbers them by their minimum core index;
///   - a border point joins the lowest-numbered cluster with a core
///     neighbour (the first one whose BFS reaches it); the rest is noise.
/// The cell structure makes each fact cheap: a cell with >= min_pts
/// occupants is all-core with no distance tests at all, sparse cells count
/// neighbours with an early exit at min_pts, and component merging needs
/// only one in-range core pair per neighbouring cell pair. Every
/// neighbourhood is scanned at most once, most never.
std::int32_t expand_grid(const geom::PointSet& points,
                         const DbscanParams& params,
                         std::vector<std::int32_t>& labels) {
  const std::size_t n = points.size();
  const std::size_t dims = points.dims();
  const double eps_sq = params.eps * params.eps;
  geom::GridIndex grid(points, grid_cell_size(params.eps, dims));
  const std::size_t cells = grid.cell_count();

  // --- Core flags. ---
  std::vector<std::uint8_t> is_core(n, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    const auto bucket = grid.bucket(c);
    if (bucket.empty()) continue;
    if (bucket.size() >= params.min_pts) {
      for (std::uint32_t p : bucket) is_core[p] = 1;
      continue;
    }
    for (std::uint32_t p : bucket) {
      std::size_t count = bucket.size();  // same cell => within eps
      grid.for_each_cell_in_reach(c, params.eps, [&](std::size_t other) {
        if (count >= params.min_pts) return;  // saturated
        for (std::uint32_t q : grid.bucket(other)) {
          if (geom::squared_distance(points[p], points[q]) <= eps_sq &&
              ++count >= params.min_pts)
            break;
        }
      });
      if (count >= params.min_pts) is_core[p] = 1;
    }
  }

  // --- Union-find over core points. Cores sharing a cell are mutual
  // neighbours, so each cell contributes one representative; neighbouring
  // cells merge on the first core pair within eps (skipped entirely once
  // their components already coincide).
  std::vector<std::uint32_t> parent(n);
  for (std::size_t i = 0; i < n; ++i)
    parent[i] = static_cast<std::uint32_t>(i);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  constexpr std::uint32_t kNoCore = 0xffffffffu;
  std::vector<std::uint32_t> cell_rep(cells, kNoCore);
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::uint32_t p : grid.bucket(c)) {
      if (!is_core[p]) continue;
      if (cell_rep[c] == kNoCore)
        cell_rep[c] = p;
      else
        parent[find(p)] = find(cell_rep[c]);
    }
  }
  for (std::size_t c = 0; c < cells; ++c) {
    if (cell_rep[c] == kNoCore) continue;
    grid.for_each_cell_in_reach(c, params.eps, [&](std::size_t other) {
      if (other < c || cell_rep[other] == kNoCore) return;  // pair once
      const std::uint32_t root = find(cell_rep[c]);
      if (root == find(cell_rep[other])) return;
      for (std::uint32_t p : grid.bucket(c)) {
        if (!is_core[p]) continue;
        for (std::uint32_t q : grid.bucket(other)) {
          if (!is_core[q]) continue;
          if (geom::squared_distance(points[p], points[q]) <= eps_sq) {
            parent[find(q)] = root;
            return;
          }
        }
      }
    });
  }

  // --- Number components by minimum core index (the serial seed order)
  // and label the cores.
  std::int32_t next_cluster = 0;
  std::vector<std::int32_t> id_of_root(n, kUnvisited);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_core[i]) continue;
    const std::uint32_t root = find(static_cast<std::uint32_t>(i));
    if (id_of_root[root] == kUnvisited) id_of_root[root] = next_cluster++;
    labels[i] = id_of_root[root];
  }

  // --- Border points take the lowest-numbered adjacent cluster; points
  // with no core neighbour are noise. Dense cells have no non-cores.
  for (std::size_t c = 0; c < cells; ++c) {
    const auto bucket = grid.bucket(c);
    if (bucket.empty() || bucket.size() >= params.min_pts) continue;
    for (std::uint32_t p : bucket) {
      if (is_core[p]) continue;
      std::int32_t best = kUnvisited;
      auto consider = [&](std::span<const std::uint32_t> candidates,
                          bool test_distance) {
        for (std::uint32_t q : candidates) {
          if (!is_core[q]) continue;
          if (test_distance &&
              geom::squared_distance(points[p], points[q]) > eps_sq)
            continue;
          if (best == kUnvisited || labels[q] < best) best = labels[q];
        }
      };
      consider(bucket, false);  // same cell => within eps
      grid.for_each_cell_in_reach(c, params.eps, [&](std::size_t other) {
        consider(grid.bucket(other), true);
      });
      labels[p] = best == kUnvisited ? kNoise : best;
    }
  }
  return next_cluster;
}

bool grid_applicable(const geom::PointSet& points, const DbscanParams& params) {
  return points.dims() >= 1 && points.dims() <= 3 &&
         geom::GridIndex::plan_cells(
             points, grid_cell_size(params.eps, points.dims()),
             kMaxGridCells) != 0;
}

}  // namespace

std::size_t DbscanResult::noise_count() const {
  std::size_t n = 0;
  for (auto l : labels)
    if (l == kNoise) ++n;
  return n;
}

DbscanResult dbscan(const geom::PointSet& points, const DbscanParams& params) {
  PT_SPAN("dbscan");
  PT_FAILPOINT("dbscan");
  PT_REQUIRE(params.eps > 0.0, "eps must be positive");
  PT_REQUIRE(params.min_pts >= 1, "min_pts must be >= 1");

  const std::size_t n = points.size();
  DbscanResult result;
  result.labels.assign(n, kNoise);
  if (n == 0) return result;

  std::vector<std::int32_t>& labels = result.labels;
  labels.assign(n, kUnvisited);

  const std::int32_t clusters = grid_applicable(points, params)
                                    ? expand_grid(points, params, labels)
                                    : expand_tree(points, params, labels);

  for (auto& l : labels)
    PT_ASSERT(l != kUnvisited, "dbscan left a point unvisited");
  result.cluster_count = clusters;
  if (obs::enabled()) {
    PT_COUNTER("dbscan_points", static_cast<double>(n));
    PT_COUNTER("dbscan_clusters", static_cast<double>(clusters));
    PT_COUNTER("noise_points", static_cast<double>(result.noise_count()));
  }
  return result;
}

}  // namespace perftrack::cluster
