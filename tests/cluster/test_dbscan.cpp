#include "cluster/dbscan.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geom/grid_index.hpp"
#include "testing/dbscan_reference.hpp"
#include "testing/kdtree.hpp"

namespace perftrack::cluster {
namespace {

using perftrack::testing::reference_dbscan;

/// dbscan() takes the grid engine when the data has at most 3 dimensions
/// and a grid with cell edge just under eps / sqrt(d) fits in 2^20 cells.
/// A smaller edge needs at least as many cells, so planning with an edge
/// 0.1% smaller (or larger) than that gives a sure answer either way.
constexpr std::size_t kGridCellBudget = std::size_t{1} << 20;

double grid_edge(const geom::PointSet& points, double eps) {
  return eps / std::sqrt(static_cast<double>(points.dims()));
}

bool takes_grid(const geom::PointSet& points, double eps) {
  return points.dims() <= 3 &&
         geom::GridIndex::plan_cells(points, grid_edge(points, eps) * 0.999,
                                     kGridCellBudget) != 0;
}

bool takes_tree(const geom::PointSet& points, double eps) {
  return points.dims() > 3 ||
         geom::GridIndex::plan_cells(points, grid_edge(points, eps) * 1.001,
                                     kGridCellBudget) == 0;
}

/// Production labels and cluster count equal the reference BFS's.
void expect_matches_reference(const geom::PointSet& points,
                              const DbscanParams& params) {
  const DbscanResult expected = reference_dbscan(points, params);
  const DbscanResult actual = dbscan(points, params);
  EXPECT_EQ(actual.cluster_count, expected.cluster_count)
      << "eps=" << params.eps << " min_pts=" << params.min_pts;
  EXPECT_EQ(actual.labels, expected.labels)
      << "eps=" << params.eps << " min_pts=" << params.min_pts;
}

/// Gaussian blobs in `dims` dimensions inside [0,1]^dims, plus uniform
/// noise points.
geom::PointSet gaussian_blobs(std::size_t dims, int blobs, double sigma,
                              int noise, Rng& rng) {
  geom::PointSet points(dims);
  std::vector<double> centre(dims), p(dims);
  for (int b = 0; b < blobs; ++b) {
    for (auto& c : centre) c = rng.uniform(0.1, 0.9);
    const int n = static_cast<int>(rng.uniform_int(20, 120));
    for (int i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < dims; ++d)
        p[d] = centre[d] + rng.normal(0.0, sigma);
      points.add(p);
    }
  }
  for (int i = 0; i < noise; ++i) {
    for (auto& c : p) c = rng.uniform(0.0, 1.0);
    points.add(p);
  }
  return points;
}

geom::PointSet blob(std::span<const std::pair<double, double>> centres,
                    std::size_t per_blob, double sigma, std::uint64_t seed) {
  Rng rng(seed);
  geom::PointSet points(2);
  for (auto [cx, cy] : centres)
    for (std::size_t i = 0; i < per_blob; ++i)
      points.add(std::vector<double>{cx + rng.normal(0.0, sigma),
                                     cy + rng.normal(0.0, sigma)});
  return points;
}

TEST(DbscanTest, EmptyInput) {
  geom::PointSet points(2);
  DbscanResult result = dbscan(points, {});
  EXPECT_EQ(result.cluster_count, 0);
  EXPECT_TRUE(result.labels.empty());
}

TEST(DbscanTest, RejectsBadParams) {
  geom::PointSet points(2, {0.0, 0.0});
  EXPECT_THROW(dbscan(points, {.eps = 0.0, .min_pts = 1}),
               PreconditionError);
  EXPECT_THROW(dbscan(points, {.eps = 0.1, .min_pts = 0}),
               PreconditionError);
}

TEST(DbscanTest, TwoSeparatedBlobs) {
  std::vector<std::pair<double, double>> centres{{0.2, 0.2}, {0.8, 0.8}};
  geom::PointSet points = blob(centres, 100, 0.01, 3);
  DbscanResult result = dbscan(points, {.eps = 0.05, .min_pts = 5});
  EXPECT_EQ(result.cluster_count, 2);
  EXPECT_EQ(result.noise_count(), 0u);
  // All points of one blob share a label.
  std::set<std::int32_t> first_blob(result.labels.begin(),
                                    result.labels.begin() + 100);
  EXPECT_EQ(first_blob.size(), 1u);
  std::set<std::int32_t> second_blob(result.labels.begin() + 100,
                                     result.labels.end());
  EXPECT_EQ(second_blob.size(), 1u);
  EXPECT_NE(*first_blob.begin(), *second_blob.begin());
}

TEST(DbscanTest, SparsePointsAreNoise) {
  std::vector<std::pair<double, double>> centres{{0.5, 0.5}};
  geom::PointSet points = blob(centres, 50, 0.005, 7);
  points.add(std::vector<double>{0.0, 0.0});  // isolated outlier
  DbscanResult result = dbscan(points, {.eps = 0.03, .min_pts = 5});
  EXPECT_EQ(result.cluster_count, 1);
  EXPECT_EQ(result.labels.back(), kNoise);
  EXPECT_EQ(result.noise_count(), 1u);
}

TEST(DbscanTest, MinPtsTooHighMakesEverythingNoise) {
  std::vector<std::pair<double, double>> centres{{0.5, 0.5}};
  geom::PointSet points = blob(centres, 10, 0.005, 7);
  DbscanResult result = dbscan(points, {.eps = 0.03, .min_pts = 50});
  EXPECT_EQ(result.cluster_count, 0);
  EXPECT_EQ(result.noise_count(), 10u);
}

TEST(DbscanTest, ChainConnectivityMergesElongatedCluster) {
  // A line of dense blobs spaced under eps apart forms ONE cluster — the
  // "stretched" imbalance clusters of the paper rely on this.
  geom::PointSet points(2);
  Rng rng(11);
  for (int step = 0; step < 20; ++step)
    for (int i = 0; i < 20; ++i)
      points.add(std::vector<double>{0.02 * step + rng.normal(0.0, 0.002),
                                     0.5 + rng.normal(0.0, 0.002)});
  DbscanResult result = dbscan(points, {.eps = 0.025, .min_pts = 5});
  EXPECT_EQ(result.cluster_count, 1);
}

TEST(DbscanTest, DeterministicLabels) {
  std::vector<std::pair<double, double>> centres{
      {0.2, 0.2}, {0.8, 0.8}, {0.2, 0.8}};
  geom::PointSet points = blob(centres, 60, 0.01, 5);
  DbscanParams params{.eps = 0.05, .min_pts = 4};
  DbscanResult a = dbscan(points, params);
  DbscanResult b = dbscan(points, params);
  EXPECT_EQ(a.labels, b.labels);
}

// Property: every point labelled into a cluster has either >= min_pts
// neighbours (core) or a core point within eps (border); noise has no core
// point within eps.
class DbscanInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbscanInvariants, CoreAndBorderConditionsHold) {
  Rng rng(GetParam());
  geom::PointSet points(2);
  int blobs = static_cast<int>(rng.uniform_int(1, 4));
  for (int c = 0; c < blobs; ++c) {
    double cx = rng.uniform(0.1, 0.9), cy = rng.uniform(0.1, 0.9);
    int n = static_cast<int>(rng.uniform_int(10, 80));
    for (int i = 0; i < n; ++i)
      points.add(std::vector<double>{cx + rng.normal(0.0, 0.02),
                                     cy + rng.normal(0.0, 0.02)});
  }
  for (int i = 0; i < 10; ++i)  // scattered noise
    points.add(std::vector<double>{rng.uniform(0.0, 1.0),
                                   rng.uniform(0.0, 1.0)});

  DbscanParams params{.eps = 0.03, .min_pts = 6};
  DbscanResult result = dbscan(points, params);

  const perftrack::testing::KdTree tree(points);
  std::vector<bool> is_core(points.size(), false);
  for (std::size_t i = 0; i < points.size(); ++i)
    is_core[i] =
        tree.radius_query(points[i], params.eps).size() >= params.min_pts;

  for (std::size_t i = 0; i < points.size(); ++i) {
    auto neighbours = tree.radius_query(points[i], params.eps);
    bool near_core = false;
    for (std::size_t n : neighbours)
      if (is_core[n]) near_core = true;
    if (result.labels[i] == kNoise) {
      EXPECT_FALSE(near_core) << "noise point " << i << " near a core point";
    } else {
      EXPECT_TRUE(near_core) << "clustered point " << i << " has no core";
      // Core neighbours must share the point's cluster.
      if (is_core[i]) {
        for (std::size_t n : neighbours) {
          if (is_core[n]) {
            EXPECT_EQ(result.labels[i], result.labels[n])
                << "cores " << i << " and " << n << " within eps differ";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbscanInvariants,
                         ::testing::Values(1, 9, 17, 33, 65));

// The grid engine must reproduce the reference kd-tree BFS's labels
// bit-for-bit: same cluster ids, same border assignment, same noise.
class DbscanEngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DbscanEngineEquivalence, GridMatchesKdTreeLabels) {
  Rng rng(GetParam());
  geom::PointSet points(2);
  int blobs = static_cast<int>(rng.uniform_int(1, 5));
  for (int c = 0; c < blobs; ++c) {
    double cx = rng.uniform(0.1, 0.9), cy = rng.uniform(0.1, 0.9);
    int n = static_cast<int>(rng.uniform_int(5, 120));
    double sigma = rng.uniform(0.003, 0.04);
    for (int i = 0; i < n; ++i)
      points.add(std::vector<double>{cx + rng.normal(0.0, sigma),
                                     cy + rng.normal(0.0, sigma)});
  }
  for (int i = 0; i < 15; ++i)  // scattered noise / border candidates
    points.add(std::vector<double>{rng.uniform(0.0, 1.0),
                                   rng.uniform(0.0, 1.0)});

  for (double eps : {0.01, 0.03, 0.08}) {
    ASSERT_TRUE(takes_grid(points, eps)) << "eps=" << eps;
    for (std::size_t min_pts : {std::size_t{1}, std::size_t{4},
                                std::size_t{10}})
      expect_matches_reference(points, {.eps = eps, .min_pts = min_pts});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbscanEngineEquivalence,
                         ::testing::Values(2, 10, 18, 34, 66, 130));

TEST(DbscanTest, AutoIndexFallsBackOnHighDimensions) {
  // 5-D data takes the tree engine; its labels are the reference's.
  Rng rng(99);
  geom::PointSet points(5);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> p(5);
    for (auto& c : p) c = rng.uniform(0.0, 1.0);
    points.add(p);
  }
  ASSERT_TRUE(takes_tree(points, 0.4));
  expect_matches_reference(points, {.eps = 0.4, .min_pts = 4});
}

TEST(DbscanTest, AutoIndexFallsBackOnHugeExtents) {
  // A spread that would blow the cell budget is vetoed up front; the tree
  // engine's labels are the reference's.
  geom::PointSet points(2);
  points.add(std::vector<double>{0.0, 0.0});
  points.add(std::vector<double>{1e9, 1e9});
  for (int i = 0; i < 10; ++i)
    points.add(std::vector<double>{0.001 * i, 0.0});
  ASSERT_TRUE(takes_tree(points, 0.01));
  expect_matches_reference(points, {.eps = 0.01, .min_pts = 3});
}

// The tree engine on clustered data: Gaussian blobs with noise in 4 and 5
// dimensions, where DBSCAN never takes the grid.
class DbscanTreeEngine
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint64_t>> {
};

TEST_P(DbscanTreeEngine, MatchesReferenceOnBlobsWithNoise) {
  const auto [dims, seed] = GetParam();
  Rng rng(seed);
  const geom::PointSet points = gaussian_blobs(
      dims, static_cast<int>(rng.uniform_int(2, 5)), 0.03, 40, rng);
  for (double eps : {0.04, 0.08, 0.15}) {
    ASSERT_TRUE(takes_tree(points, eps));
    for (std::size_t min_pts : {std::size_t{1}, std::size_t{4},
                                std::size_t{10}})
      expect_matches_reference(points, {.eps = eps, .min_pts = min_pts});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Blobs, DbscanTreeEngine,
    ::testing::Values(std::pair<std::size_t, std::uint64_t>{4, 3},
                      std::pair<std::size_t, std::uint64_t>{4, 14},
                      std::pair<std::size_t, std::uint64_t>{5, 7},
                      std::pair<std::size_t, std::uint64_t>{5, 21}));

TEST(DbscanTest, TreeEngineWhenTheGridWouldBeTooFine) {
  // 2-D blobs over the unit square with an eps so small that the grid
  // would need more than 2^20 cells: dbscan() takes the tree.
  Rng rng(8);
  const geom::PointSet points = gaussian_blobs(2, 4, 0.0006, 60, rng);
  for (double eps : {0.0008, 0.001, 0.0012}) {
    ASSERT_TRUE(takes_tree(points, eps)) << "eps=" << eps;
    for (std::size_t min_pts : {std::size_t{2}, std::size_t{5},
                                std::size_t{12}})
      expect_matches_reference(points, {.eps = eps, .min_pts = min_pts});
  }
}

// Shapes on the grid path that a neighbour query gets wrong first.

TEST(DbscanTest, GridEngineOnCollinearPoints) {
  geom::PointSet points(2);
  for (int i = 0; i < 50; ++i)
    points.add(std::vector<double>{0.02 * i, 0.5});
  for (double eps : {0.02, 0.025, 0.05}) {
    ASSERT_TRUE(takes_grid(points, eps));
    for (std::size_t min_pts : {std::size_t{2}, std::size_t{3},
                                std::size_t{5}})
      expect_matches_reference(points, {.eps = eps, .min_pts = min_pts});
  }
}

TEST(DbscanTest, GridEngineCountsANeighbourExactlyAtEps) {
  // Distances exact in binary: 0-1 and 1-2 are exactly eps apart, 2-3 is
  // twice that. The chain is one cluster only if the boundary counts.
  const geom::PointSet points(2, {0.0, 0.0, 0.25, 0.0, 0.5, 0.0, 1.0, 0.0});
  const DbscanParams params{.eps = 0.25, .min_pts = 2};
  ASSERT_TRUE(takes_grid(points, params.eps));
  EXPECT_EQ(dbscan(points, params).labels,
            (std::vector<std::int32_t>{0, 0, 0, kNoise}));
  expect_matches_reference(points, params);
  expect_matches_reference(points, {.eps = 0.25, .min_pts = 3});
}

TEST(DbscanTest, GridEngineOnAllDuplicatePoints) {
  geom::PointSet points(2);
  for (int i = 0; i < 40; ++i) points.add(std::vector<double>{0.3, 0.7});
  ASSERT_TRUE(takes_grid(points, 0.01));
  for (std::size_t min_pts : {std::size_t{1}, std::size_t{5},
                              std::size_t{40}, std::size_t{41}})
    expect_matches_reference(points, {.eps = 0.01, .min_pts = min_pts});
  EXPECT_EQ(dbscan(points, {.eps = 0.01, .min_pts = 40}).cluster_count, 1);
  EXPECT_EQ(dbscan(points, {.eps = 0.01, .min_pts = 41}).noise_count(), 40u);
}

TEST(DbscanTest, GridEngineOnDataFarFromTheOrigin) {
  // Blobs around (1e6, -1e6): the grid's cells are laid from the data's
  // lower corner, not from the origin.
  Rng rng(12);
  geom::PointSet points(2);
  for (int b = 0; b < 3; ++b) {
    const double cx = 1e6 + rng.uniform(0.0, 0.5);
    const double cy = -1e6 + rng.uniform(0.0, 0.5);
    for (int i = 0; i < 60; ++i)
      points.add(std::vector<double>{cx + rng.normal(0.0, 0.01),
                                     cy + rng.normal(0.0, 0.01)});
  }
  for (double eps : {0.005, 0.02}) {
    ASSERT_TRUE(takes_grid(points, eps));
    for (std::size_t min_pts : {std::size_t{3}, std::size_t{8}})
      expect_matches_reference(points, {.eps = eps, .min_pts = min_pts});
  }
}

}  // namespace
}  // namespace perftrack::cluster
