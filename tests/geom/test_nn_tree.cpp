// NnTree must answer nearest() with the exact KdTree::nearest contract —
// closest point, ties broken by the lowest row index — for every input the
// displacement evaluator can produce. The cross-checks below pin it against
// brute force and the kd-tree, including the shapes where a '>=' prune or a
// box that rounds past its points would silently pick a different, equally
// near point: duplicates, ties across a split, points on a box face, and
// hints that tie with a lower row.

#include "geom/nn_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geom/kdtree.hpp"

namespace perftrack::geom {
namespace {

PointSet random_points(std::size_t n, std::size_t dims, Rng& rng) {
  PointSet points(dims);
  std::vector<double> coords(dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& c : coords) c = rng.uniform(0.0, 1.0);
    points.add(coords);
  }
  return points;
}

std::vector<double> random_query(std::size_t dims, double lo, double hi,
                                 Rng& rng) {
  std::vector<double> query(dims);
  for (auto& c : query) c = rng.uniform(lo, hi);
  return query;
}

std::size_t brute_nearest(const PointSet& points,
                          std::span<const double> query) {
  std::size_t best = 0;
  double best_sq = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    double d2 = squared_distance(query, points[i]);
    if (d2 < best_sq || (d2 == best_sq && i < best)) {
      best_sq = d2;
      best = i;
    }
  }
  return best;
}

TEST(NnTreeTest, SinglePoint) {
  PointSet points(2, {0.5, 0.5});
  NnTree tree(points);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.nearest(std::vector<double>{0.0, 0.0}), 0u);
  EXPECT_EQ(tree.nearest(std::vector<double>{0.5, 0.5}, 0), 0u);
}

TEST(NnTreeTest, QueryErrors) {
  PointSet points(2, {0.0, 0.0});
  NnTree tree(points);
  EXPECT_THROW(tree.nearest(std::vector<double>{0.0}), PreconditionError);
  PointSet none(2);
  NnTree empty(none);
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.nearest(std::vector<double>{0.0, 0.0}),
               PreconditionError);
}

TEST(NnTreeTest, DuplicatePointsTieToLowestIndex) {
  // 40 copies split across several leaves: whichever leaf the descent
  // reaches first, the answer is row 0.
  PointSet points(2);
  for (int i = 0; i < 40; ++i) points.add(std::vector<double>{1.0, 1.0});
  NnTree tree(points);
  EXPECT_EQ(tree.nearest(std::vector<double>{1.0, 1.0}), 0u);
  EXPECT_EQ(tree.nearest(std::vector<double>{0.0, 0.0}), 0u);
  EXPECT_EQ(tree.nearest(std::vector<double>{0.0, 0.0}, 39), 0u);
}

TEST(NnTreeTest, EquidistantPointsOnBothSidesOfASplitTieToLowestIndex) {
  // 64 points on a line; the root's median split puts row 1 (x = 0.25,
  // the largest of the left half) and row 0 (x = 0.3125, the smallest of
  // the right half) on opposite sides. Both are exactly 0.03125 from the
  // query, and so are the two children's boxes: the descent reaches row 1
  // first and must still visit the right child, whose box ties the best.
  PointSet points(1);
  points.add(std::vector<double>{0.3125});
  points.add(std::vector<double>{0.25});
  for (int i = 0; i < 31; ++i)
    points.add(std::vector<double>{-0.75 - static_cast<double>(i)});
  for (int i = 0; i < 31; ++i)
    points.add(std::vector<double>{1.3125 + static_cast<double>(i)});
  const std::vector<double> query{0.28125};
  NnTree tree(points);
  EXPECT_EQ(tree.nearest(query), 0u);
  EXPECT_EQ(tree.nearest(query, 1), 0u);
  EXPECT_EQ(brute_nearest(points, query), 0u);
  EXPECT_EQ(KdTree(points).nearest(query), 0u);
}

TEST(NnTreeTest, PointsOnABoxFaceStayReachable) {
  // Two tight clusters; the query lies outside both, and the tied points
  // (exactly 0.5 away) lie on the faces of their clusters' boxes, where the
  // box distance equals the point distance. A '<' prune would skip the box
  // holding the lower row.
  PointSet points(2);
  Rng rng(3);
  points.add(std::vector<double>{2.0, 0.5});  // row 0: right box's left face
  for (int i = 0; i < 40; ++i)
    points.add(std::vector<double>{rng.uniform(2.0, 2.25),
                                   rng.uniform(0.0, 1.0)});
  points.add(std::vector<double>{1.0, 0.5});  // row 41: left box's right face
  for (int i = 0; i < 40; ++i)
    points.add(std::vector<double>{rng.uniform(0.75, 1.0),
                                   rng.uniform(0.0, 1.0)});
  const std::vector<double> query{1.5, 0.5};
  NnTree tree(points);
  EXPECT_EQ(tree.nearest(query), 0u);
  EXPECT_EQ(tree.nearest(query, 41), 0u);
  EXPECT_EQ(brute_nearest(points, query), 0u);
}

TEST(NnTreeTest, HintTiedWithALowerRowDoesNotWin) {
  // Four points exactly 0.25 from the query (offsets exact in binary).
  // Seeding the search with any of them must still return row 0.
  PointSet points(2);
  points.add(std::vector<double>{0.5, 0.75});
  points.add(std::vector<double>{0.5, 0.25});
  points.add(std::vector<double>{0.25, 0.5});
  points.add(std::vector<double>{0.75, 0.5});
  Rng rng(5);
  for (int i = 0; i < 60; ++i)
    points.add(std::vector<double>{rng.uniform(2.0, 3.0),
                                   rng.uniform(2.0, 3.0)});
  const std::vector<double> query{0.5, 0.5};
  NnTree tree(points);
  for (std::size_t hint : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                           std::size_t{3}, std::size_t{50}, NnTree::kNoHint})
    EXPECT_EQ(tree.nearest(query, hint), 0u) << "hint " << hint;
}

TEST(NnTreeTest, TightClustersQueriedFromFarOutside) {
  // The displacement evaluator's shape: dense blobs far apart, queried
  // from points of another frame that may sit far from every blob.
  Rng rng(55);
  PointSet points(2);
  for (int c = 0; c < 6; ++c) {
    const double cx = rng.uniform(0.0, 1.0), cy = rng.uniform(0.0, 1.0);
    for (int i = 0; i < 200; ++i)
      points.add(std::vector<double>{cx + rng.normal(0.0, 0.002),
                                     cy + rng.normal(0.0, 0.002)});
  }
  NnTree tree(points);
  KdTree kd(points);
  std::size_t hint = NnTree::kNoHint;
  for (int q = 0; q < 200; ++q) {
    const double spread = q < 100 ? 1.0 : 1e6;
    const std::vector<double> query = random_query(2, -spread, spread, rng);
    const std::size_t expected = brute_nearest(points, query);
    EXPECT_EQ(tree.nearest(query), expected);
    EXPECT_EQ(tree.nearest(query, hint), expected);
    EXPECT_EQ(kd.nearest(query), expected);
    hint = expected;
  }
}

TEST(NnTreeTest, InfiniteCoordinatesMatchKdTree) {
  // A coordinate the kd-tree answers for, so the one engine must too.
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(17);
  PointSet points = random_points(100, 2, rng);
  points.mutable_point(7)[0] = inf;
  points.mutable_point(42)[1] = -inf;
  points.mutable_point(60)[0] = -inf;
  points.mutable_point(60)[1] = inf;
  NnTree tree(points);
  KdTree kd(points);
  for (int q = 0; q < 100; ++q) {
    const std::vector<double> query = random_query(2, -0.5, 1.5, rng);
    EXPECT_EQ(tree.nearest(query), kd.nearest(query));
    EXPECT_EQ(tree.nearest(query), brute_nearest(points, query));
  }
  // Every point infinitely far: the lowest row wins the tie.
  PointSet far(1, {inf, inf, -inf});
  NnTree far_tree(far);
  EXPECT_EQ(far_tree.nearest(std::vector<double>{0.0}), 0u);
  EXPECT_EQ(KdTree(far).nearest(std::vector<double>{0.0}), 0u);
}

// Property tests: random clouds in 1 to 5 dimensions must match brute
// force and the kd-tree, with and without a hint.
struct NnTreeCase {
  std::size_t n;
  std::size_t dims;
  std::uint64_t seed;
};

class NnTreeProperty : public ::testing::TestWithParam<NnTreeCase> {};

TEST_P(NnTreeProperty, NearestMatchesBruteForceAndKdTree) {
  auto [n, dims, seed] = GetParam();
  Rng rng(seed);
  PointSet points = random_points(n, dims, rng);
  NnTree tree(points);
  KdTree kd(points, /*leaf_size=*/4);
  for (int q = 0; q < 150; ++q) {
    const std::vector<double> query = random_query(dims, -0.2, 1.2, rng);
    const std::size_t expected = brute_nearest(points, query);
    const auto hint = static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                               static_cast<double>(n));
    EXPECT_EQ(tree.nearest(query), expected);
    EXPECT_EQ(tree.nearest(query, hint), expected);
    EXPECT_EQ(kd.nearest(query), expected);
  }
  // Querying the points themselves (the sweep's case: a row of one frame
  // against a cloud of similar rows) hits exact zero distances.
  for (std::size_t i = 0; i < n; i += 7)
    EXPECT_EQ(tree.nearest(points[i]), brute_nearest(points, points[i]));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NnTreeProperty,
    ::testing::Values(NnTreeCase{1, 2, 1}, NnTreeCase{2, 2, 2},
                      NnTreeCase{17, 2, 3}, NnTreeCase{100, 2, 4},
                      NnTreeCase{500, 2, 5}, NnTreeCase{100, 3, 6},
                      NnTreeCase{999, 1, 8}, NnTreeCase{300, 4, 9},
                      NnTreeCase{300, 5, 10}));

TEST(NnTreeTest, QuantisedCoordinatesWithManyTies) {
  // Coordinates on a coarse lattice: most queries have several nearest
  // points at exactly the same distance, in every dimension count.
  for (std::size_t dims = 1; dims <= 5; ++dims) {
    Rng rng(100 + dims);
    PointSet points(dims);
    std::vector<double> coords(dims);
    for (int i = 0; i < 400; ++i) {
      for (auto& c : coords) c = std::floor(rng.uniform(0.0, 4.0)) * 0.25;
      points.add(coords);
    }
    NnTree tree(points);
    KdTree kd(points);
    for (int q = 0; q < 100; ++q) {
      std::vector<double> query(dims);
      for (auto& c : query) c = std::floor(rng.uniform(-1.0, 9.0)) * 0.125;
      const std::size_t expected = brute_nearest(points, query);
      EXPECT_EQ(tree.nearest(query), expected) << dims << "-D";
      EXPECT_EQ(kd.nearest(query), expected) << dims << "-D";
    }
  }
}

}  // namespace
}  // namespace perftrack::geom
