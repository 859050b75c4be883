// The grid DBSCAN engine finds every eps-neighbourhood by scanning a
// point's own cell (bucket) and the cells for_each_cell_in_reach visits,
// and it merges each pair of neighbouring cells once, from the lower cell
// id. These tests check that those two walks find exactly the pairs
// within the radius that brute force and the reference kd-tree find.

#include "geom/grid_index.hpp"

#include <algorithm>
#include <gtest/gtest.h>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "testing/kdtree.hpp"

namespace perftrack::geom {
namespace {

using perftrack::testing::KdTree;

PointSet random_points(std::size_t n, std::size_t dims, Rng& rng) {
  PointSet points(dims);
  std::vector<double> coords(dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& c : coords) c = rng.uniform(0.0, 1.0);
    points.add(coords);
  }
  return points;
}

std::vector<std::size_t> brute_radius(const PointSet& points,
                                      std::span<const double> query,
                                      double radius) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (squared_distance(query, points[i]) <= radius * radius)
      out.push_back(i);
  return out;
}

using Pair = std::pair<std::size_t, std::size_t>;

std::set<Pair> brute_pairs(const PointSet& points, double radius) {
  std::set<Pair> out;
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = i + 1; j < points.size(); ++j)
      if (squared_distance(points[i], points[j]) <= radius * radius)
        out.insert({i, j});
  return out;
}

/// Each point's cell, read back from the buckets.
std::vector<std::size_t> cell_of_each_point(const GridIndex& grid) {
  std::vector<std::size_t> cell(grid.size());
  for (std::size_t c = 0; c < grid.cell_count(); ++c)
    for (std::uint32_t p : grid.bucket(c)) cell[p] = c;
  return cell;
}

/// The points within `radius` of point `p`, ascending, as the grid engine
/// finds them: p's own cell plus every cell in reach of it.
std::vector<std::size_t> reach_neighbours(const GridIndex& grid,
                                          const PointSet& points,
                                          std::size_t p, double radius) {
  const std::size_t cell = cell_of_each_point(grid)[p];
  std::vector<std::size_t> out;
  auto scan = [&](std::size_t c) {
    for (std::uint32_t q : grid.bucket(c))
      if (squared_distance(points[p], points[q]) <= radius * radius)
        out.push_back(q);
  };
  scan(cell);
  grid.for_each_cell_in_reach(cell, radius, scan);
  std::sort(out.begin(), out.end());
  return out;
}

/// The pairs (i, j), i < j, within `radius`, as the grid engine's merge
/// walks them: pairs inside one cell, then each cell with every cell in
/// reach that has a higher id. Checks that no pair comes up twice.
std::set<Pair> collect_pairs(const GridIndex& grid, const PointSet& points,
                             double radius) {
  std::set<Pair> seen;
  auto visit = [&](std::uint32_t a, std::uint32_t b) {
    if (squared_distance(points[a], points[b]) > radius * radius) return;
    const Pair pair{std::min(a, b), std::max(a, b)};
    EXPECT_TRUE(seen.insert(pair).second)
        << "pair (" << pair.first << ", " << pair.second << ") seen twice";
  };
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    const auto bucket = grid.bucket(c);
    if (bucket.empty()) continue;
    for (std::size_t s = 0; s < bucket.size(); ++s)
      for (std::size_t t = s + 1; t < bucket.size(); ++t)
        visit(bucket[s], bucket[t]);
    grid.for_each_cell_in_reach(c, radius, [&](std::size_t other) {
      if (other < c) return;
      for (std::uint32_t a : bucket)
        for (std::uint32_t b : grid.bucket(other)) visit(a, b);
    });
  }
  return seen;
}

TEST(GridIndexTest, EmptySet) {
  PointSet points(2);
  GridIndex grid(points, 0.1);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_EQ(grid.cell_count(), 1u);
  EXPECT_TRUE(grid.bucket(0).empty());
  EXPECT_TRUE(collect_pairs(grid, points, 1.0).empty());
}

TEST(GridIndexTest, RejectsBadArguments) {
  PointSet points(2, {0.0, 0.0});
  EXPECT_THROW(GridIndex(points, 0.0), PreconditionError);
  GridIndex grid(points, 0.1);
  EXPECT_THROW(grid.for_each_cell_in_reach(0, -0.1, [](std::size_t) {}),
               PreconditionError);
}

TEST(GridIndexTest, AllDuplicatePoints) {
  PointSet points(2);
  for (int i = 0; i < 40; ++i) points.add(std::vector<double>{1.0, 1.0});
  GridIndex grid(points, 0.05);
  // Radius zero still finds every duplicate, ascending.
  auto hits = reach_neighbours(grid, points, 17, 0.0);
  ASSERT_EQ(hits.size(), 40u);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
  // Every unordered pair coincides, so all C(40, 2) come out exactly once.
  EXPECT_EQ(collect_pairs(grid, points, 0.0).size(), 40u * 39u / 2u);
}

TEST(GridIndexTest, CollinearPoints) {
  PointSet points(2);
  for (int i = 0; i < 50; ++i)
    points.add(std::vector<double>{0.02 * i, 0.5});
  GridIndex grid(points, 0.025);
  KdTree tree(points);
  for (double radius : {0.0, 0.02, 0.05, 0.3}) {
    for (int q = 0; q < 50; q += 7) {
      EXPECT_EQ(reach_neighbours(grid, points, q, radius),
                tree.radius_query(points[q], radius));
    }
    EXPECT_EQ(collect_pairs(grid, points, radius),
              brute_pairs(points, radius));
  }
}

TEST(GridIndexTest, BoundaryExactlyAtRadiusIsInclusive) {
  // Matching KdTree's contract: distance == radius is a hit, even when the
  // candidate sits in a neighbouring cell.
  PointSet points(2, {0.0, 0.0, 0.025, 0.0, 0.05, 0.0});
  GridIndex grid(points, 0.025);
  EXPECT_EQ(reach_neighbours(grid, points, 0, 0.025),
            (std::vector<std::size_t>{0, 1}));
  auto pairs = collect_pairs(grid, points, 0.025);
  EXPECT_EQ(pairs, (std::set<Pair>{{0, 1}, {1, 2}}));
}

TEST(GridIndexTest, ConstructorRejectsOverflowingCellTables) {
  // Widely spread data with a tiny cell would need ~1e21 cells per dim;
  // unchecked, the strides overflow and cell lookups go out of bounds.
  // The constructor must fail loudly instead.
  PointSet spread(2, {0.0, 0.0, 1e12, 1e12});
  EXPECT_THROW(GridIndex(spread, 1e-9), PreconditionError);
  // A ratio beyond the integer range (UB to cast unchecked) saturates and
  // is rejected the same way, by the constructor and the planner alike.
  PointSet extreme(1, {0.0, 1e300});
  EXPECT_THROW(GridIndex(extreme, 1e-300), PreconditionError);
  EXPECT_EQ(GridIndex::plan_cells(extreme, 1e-300, 1u << 20), 0u);
}

TEST(GridIndexTest, PlanCellsVetoesDegenerateConfigurations) {
  PointSet spread(2, {0.0, 0.0, 1e9, 1e9});
  EXPECT_EQ(GridIndex::plan_cells(spread, 0.01, 1u << 20), 0u);
  PointSet unit(2, {0.0, 0.0, 1.0, 1.0});
  std::size_t cells = GridIndex::plan_cells(unit, 0.1, 1u << 20);
  EXPECT_GT(cells, 0u);
  EXPECT_LE(cells, std::size_t{1} << 20);
  EXPECT_EQ(GridIndex::plan_cells(unit, 0.0, 1u << 20), 0u);
  EXPECT_EQ(GridIndex::plan_cells(PointSet(2), 0.1, 1u << 20), 1u);
}

TEST(GridIndexTest, ReachableCellsSeeEveryNonEmptyNeighbour) {
  // Two occupied cells far apart: within reach they see each other, beyond
  // reach they do not, and empty cells are never visited.
  PointSet points(1, {0.05, 0.95});
  GridIndex grid(points, 0.1);
  std::size_t cell_a = 0, cell_b = 0;
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    for (std::uint32_t p : grid.bucket(c)) (p == 0 ? cell_a : cell_b) = c;
  }
  ASSERT_NE(cell_a, cell_b);
  std::vector<std::size_t> seen;
  grid.for_each_cell_in_reach(cell_a, 1.0,
                              [&](std::size_t c) { seen.push_back(c); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{cell_b}));
  seen.clear();
  grid.for_each_cell_in_reach(cell_a, 0.1,
                              [&](std::size_t c) { seen.push_back(c); });
  EXPECT_TRUE(seen.empty());
}

// Property tests: neighbourhoods through the grid must exactly match brute
// force and the kd-tree (same inclusive-boundary, ascending-order
// contract), for every point of the set.
struct GridCase {
  std::size_t n;
  std::size_t dims;
  double cell;
  std::uint64_t seed;
};

class GridIndexProperty : public ::testing::TestWithParam<GridCase> {};

TEST_P(GridIndexProperty, RadiusMatchesBruteForceAndKdTree) {
  auto [n, dims, cell, seed] = GetParam();
  Rng rng(seed);
  PointSet points = random_points(n, dims, rng);
  GridIndex grid(points, cell);
  KdTree tree(points, /*leaf_size=*/4);
  for (double radius : {0.0, 0.01, 0.1, 0.3, 2.0}) {
    for (std::size_t p = 0; p < n; p += 1 + n / 25) {
      auto expected = brute_radius(points, points[p], radius);
      EXPECT_EQ(reach_neighbours(grid, points, p, radius), expected);
      EXPECT_EQ(tree.radius_query(points[p], radius), expected);
    }
  }
}

TEST_P(GridIndexProperty, PairEnumerationMatchesBruteForce) {
  auto [n, dims, cell, seed] = GetParam();
  Rng rng(seed + 1000);
  PointSet points = random_points(n, dims, rng);
  GridIndex grid(points, cell);
  for (double radius : {0.01, 0.1, 0.5}) {
    EXPECT_EQ(collect_pairs(grid, points, radius),
              brute_pairs(points, radius));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GridIndexProperty,
    ::testing::Values(GridCase{1, 2, 0.1, 1}, GridCase{2, 2, 0.1, 2},
                      GridCase{17, 2, 0.05, 3}, GridCase{100, 2, 0.025, 4},
                      GridCase{300, 2, 0.1, 5}, GridCase{100, 3, 0.2, 6},
                      GridCase{200, 1, 0.01, 7},
                      // Cells far larger / smaller than the radii.
                      GridCase{100, 2, 1.0, 8}, GridCase{60, 2, 0.004, 9}));

}  // namespace
}  // namespace perftrack::geom
