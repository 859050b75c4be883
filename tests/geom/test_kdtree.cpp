// The reference kd-tree in tests/testing/kdtree.hpp is the oracle the
// NnTree, DBSCAN and displacement tests compare against, so it is itself
// pinned against brute force here.

#include "testing/kdtree.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

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

std::size_t brute_nearest(const PointSet& points,
                          std::span<const double> query) {
  std::size_t best = 0;
  double best_sq = 1e300;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double d2 = squared_distance(query, points[i]);
    if (d2 < best_sq || (d2 == best_sq && i < best)) {
      best_sq = d2;
      best = i;
    }
  }
  return best;
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

TEST(KdTreeTest, SinglePoint) {
  PointSet points(2, {0.5, 0.5});
  KdTree tree(points);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.nearest(std::vector<double>{0.0, 0.0}), 0u);
}

TEST(KdTreeTest, EmptyTreeNearestThrows) {
  PointSet points(2);
  KdTree tree(points);
  EXPECT_THROW(tree.nearest(std::vector<double>{0.0, 0.0}),
               PreconditionError);
}

TEST(KdTreeTest, EmptyTreeRadiusIsEmpty) {
  PointSet points(2);
  KdTree tree(points);
  EXPECT_TRUE(tree.radius_query(std::vector<double>{0.0, 0.0}, 1.0).empty());
}

TEST(KdTreeTest, QueryDimensionMismatchThrows) {
  PointSet points(2, {0.0, 0.0});
  KdTree tree(points);
  EXPECT_THROW(tree.nearest(std::vector<double>{0.0}), PreconditionError);
  EXPECT_THROW(tree.radius_query(std::vector<double>{0.0, 0.0, 0.0}, 1.0),
               PreconditionError);
}

TEST(KdTreeTest, NegativeRadiusThrows) {
  PointSet points(2, {0.0, 0.0});
  KdTree tree(points);
  EXPECT_THROW(tree.radius_query(std::vector<double>{0.0, 0.0}, -0.1),
               PreconditionError);
}

TEST(KdTreeTest, DuplicatePoints) {
  PointSet points(2);
  for (int i = 0; i < 40; ++i) points.add(std::vector<double>{1.0, 1.0});
  KdTree tree(points);
  // Ties break to the lowest index.
  EXPECT_EQ(tree.nearest(std::vector<double>{1.0, 1.0}), 0u);
  auto all = tree.radius_query(std::vector<double>{1.0, 1.0}, 0.0);
  EXPECT_EQ(all.size(), 40u);
}

TEST(KdTreeTest, NearestTieBreaksToLowestIndexAcrossSplits) {
  // The grid NN engine promises byte-identical labels by reproducing this
  // exact rule, so it is pinned here adversarially: equidistant points
  // (exact binary distances) on BOTH sides of the root split, with the
  // lowest index placed on the far side, so a traversal that skips the
  // far subtree on an exact tie (diff*diff == best_sq) would miss it.
  PointSet points(2);
  points.add(std::vector<double>{0.75, 0.5});   // right of the query
  points.add(std::vector<double>{0.25, 0.5});   // left, same distance
  points.add(std::vector<double>{0.5, 0.75});
  points.add(std::vector<double>{0.5, 0.25});
  // Padding spreads the x-axis so it is the widest dim and splits at 0.5.
  points.add(std::vector<double>{0.0, 0.5});
  points.add(std::vector<double>{1.0, 0.5});
  KdTree tree(points, /*leaf_size=*/1);
  EXPECT_EQ(tree.nearest(std::vector<double>{0.5, 0.5}), 0u);
}

TEST(KdTreeTest, NearestTieBreaksToLowestIndexWithinLeaf) {
  // Interleaved duplicates of two equidistant locations in one leaf: the
  // winner must be the first point added, not the first one scanned in
  // any internal ordering.
  PointSet points(1);
  points.add(std::vector<double>{2.0});
  points.add(std::vector<double>{0.0});
  points.add(std::vector<double>{2.0});
  points.add(std::vector<double>{0.0});
  KdTree tree(points, /*leaf_size=*/8);
  EXPECT_EQ(tree.nearest(std::vector<double>{1.0}), 0u);
  EXPECT_EQ(tree.nearest(std::vector<double>{0.5}), 1u);
  EXPECT_EQ(tree.nearest(std::vector<double>{2.5}), 0u);
}

TEST(KdTreeTest, RadiusBoundaryInclusive) {
  PointSet points(1, {0.0, 1.0, 2.0});
  KdTree tree(points);
  auto hits = tree.radius_query(std::vector<double>{0.0}, 1.0);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 1u);
}

// Property tests: kd-tree results must exactly match brute force.
struct KdCase {
  std::size_t n;
  std::size_t dims;
  std::uint64_t seed;
};

class KdTreeProperty : public ::testing::TestWithParam<KdCase> {};

TEST_P(KdTreeProperty, NearestMatchesBruteForce) {
  auto [n, dims, seed] = GetParam();
  Rng rng(seed);
  PointSet points = random_points(n, dims, rng);
  KdTree tree(points, /*leaf_size=*/4);
  for (int q = 0; q < 50; ++q) {
    std::vector<double> query(dims);
    for (auto& c : query) c = rng.uniform(-0.2, 1.2);
    EXPECT_EQ(tree.nearest(query), brute_nearest(points, query));
  }
}

TEST_P(KdTreeProperty, RadiusMatchesBruteForce) {
  auto [n, dims, seed] = GetParam();
  Rng rng(seed + 1000);
  PointSet points = random_points(n, dims, rng);
  KdTree tree(points, /*leaf_size=*/4);
  for (double radius : {0.01, 0.1, 0.3, 2.0}) {
    for (int q = 0; q < 10; ++q) {
      std::vector<double> query(dims);
      for (auto& c : query) c = rng.uniform(0.0, 1.0);
      EXPECT_EQ(tree.radius_query(query, radius),
                brute_radius(points, query, radius));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KdTreeProperty,
    ::testing::Values(KdCase{1, 2, 1}, KdCase{2, 2, 2}, KdCase{17, 2, 3},
                      KdCase{100, 2, 4}, KdCase{500, 2, 5},
                      KdCase{100, 3, 6}, KdCase{100, 5, 7},
                      KdCase{999, 1, 8}));

TEST(KdTreeTest, ClusteredDataNearest) {
  // Clustered (non-uniform) data exercises unbalanced splits.
  Rng rng(55);
  PointSet points(2);
  for (int c = 0; c < 5; ++c) {
    double cx = rng.uniform(0.0, 1.0), cy = rng.uniform(0.0, 1.0);
    for (int i = 0; i < 60; ++i)
      points.add(std::vector<double>{cx + rng.normal(0.0, 0.01),
                                     cy + rng.normal(0.0, 0.01)});
  }
  KdTree tree(points);
  for (int q = 0; q < 40; ++q) {
    std::vector<double> query{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    EXPECT_EQ(tree.nearest(query), brute_nearest(points, query));
  }
}

}  // namespace
}  // namespace perftrack::geom
