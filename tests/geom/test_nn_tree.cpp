// NnTree must answer its three queries exactly, for every input the
// displacement evaluator, DBSCAN's tree engine and autotune can produce:
//   * nearest(): KdTree::nearest's contract — closest point, ties broken by
//     the lowest row index;
//   * radius_query(): every row within the radius, boundary included, in
//     ascending order — KdTree::radius_query's contract;
//   * k_nearest(): the first k rows by (squared distance, row), a NaN
//     distance ordering as +infinity.
// The cross-checks below pin them against brute force and the reference
// kd-tree (tests/testing/kdtree.hpp), including the shapes where a '>='
// prune or a box that rounds past its points would silently drop or swap a
// row: duplicates, ties across a split, points on a box face or exactly on
// the radius, hints that tie with a lower row, and non-finite coordinates.
// A build on a pool must give the serial build's answers to every query.

#include "geom/nn_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
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

std::vector<std::size_t> brute_radius(const PointSet& points,
                                      std::span<const double> query,
                                      double radius) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (squared_distance(query, points[i]) <= radius * radius)
      out.push_back(i);
  return out;
}

/// The first k rows by (squared distance, row), a NaN distance keyed as
/// +infinity.
std::vector<std::size_t> brute_knn(const PointSet& points,
                                   std::span<const double> query,
                                   std::size_t k) {
  std::vector<double> key(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d2 = squared_distance(query, points[i]);
    key[i] = std::isnan(d2) ? std::numeric_limits<double>::infinity() : d2;
  }
  std::vector<std::size_t> rows(points.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  std::stable_sort(rows.begin(), rows.end(), [&](std::size_t a,
                                                 std::size_t b) {
    return key[a] < key[b];
  });
  rows.resize(std::min(k, rows.size()));
  return rows;
}

std::vector<std::size_t> radius_of(const NnTree& tree,
                                   std::span<const double> query,
                                   double radius) {
  std::vector<std::size_t> out{12345};  // radius_query clears it first
  tree.radius_query(query, radius, out);
  return out;
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
  std::vector<std::size_t> out;
  EXPECT_THROW(tree.nearest(std::vector<double>{0.0}), PreconditionError);
  EXPECT_THROW(tree.radius_query(std::vector<double>{0.0, 0.0, 0.0}, 1.0,
                                 out),
               PreconditionError);
  EXPECT_THROW(tree.radius_query(std::vector<double>{0.0, 0.0}, -0.1, out),
               PreconditionError);
  EXPECT_THROW(tree.k_nearest(std::vector<double>{0.0}, 1),
               PreconditionError);
  PointSet none(2);
  NnTree empty(none);
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.nearest(std::vector<double>{0.0, 0.0}),
               PreconditionError);
  EXPECT_THROW(empty.radius_query(std::vector<double>{0.0}, 1.0, out),
               PreconditionError);
  EXPECT_THROW(empty.k_nearest(std::vector<double>{0.0}, 1),
               PreconditionError);
}

TEST(NnTreeTest, EmptyTreeAnswersNoRows) {
  PointSet none(2);
  NnTree empty(none);
  EXPECT_TRUE(radius_of(empty, std::vector<double>{0.0, 0.0}, 1.0).empty());
  EXPECT_TRUE(empty.k_nearest(std::vector<double>{0.0, 0.0}, 3).empty());
}

TEST(NnTreeTest, KnnClampsAndHandlesZero) {
  PointSet points(1, {0.0, 1.0, 2.0});
  NnTree tree(points);
  EXPECT_TRUE(tree.k_nearest(std::vector<double>{0.0}, 0).empty());
  auto all = tree.k_nearest(std::vector<double>{0.9}, 99);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all, (std::vector<std::size_t>{1, 0, 2}));  // 1.0 is nearest
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
  // Radius zero still finds every duplicate, ascending; k-NN ties go by
  // row.
  std::vector<std::size_t> all(40);
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_EQ(radius_of(tree, std::vector<double>{1.0, 1.0}, 0.0), all);
  EXPECT_TRUE(radius_of(tree, std::vector<double>{0.0, 0.0}, 1.0).empty());
  EXPECT_EQ(tree.k_nearest(std::vector<double>{0.0, 0.0}, 5),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(tree.k_nearest(std::vector<double>{1.0, 1.0}, 40), all);
}

TEST(NnTreeTest, RadiusBoundaryIsInclusiveAcrossLeaves) {
  // 129 points a quarter apart on a line, so the ball's two boundary
  // points (exactly 1.0 away, four steps each way) and the points one
  // step beyond them sit in different leaves from the query's.
  PointSet points(1);
  for (int i = 0; i < 129; ++i)
    points.add(std::vector<double>{0.25 * ((i * 37) % 129)});
  NnTree tree(points);
  KdTree kd(points);
  for (double centre : {0.0, 8.0, 16.0, 32.0}) {
    const std::vector<double> query{centre};
    const std::vector<std::size_t> hits = radius_of(tree, query, 1.0);
    EXPECT_EQ(hits, brute_radius(points, query, 1.0)) << centre;
    EXPECT_EQ(hits, kd.radius_query(query, 1.0)) << centre;
    EXPECT_EQ(hits.size(), centre == 0.0 || centre == 32.0 ? 5u : 9u);
  }
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

TEST(NnTreeTest, NonFiniteCoordinatesInRadiusAndKnnMatchBruteForce) {
  // ±inf and NaN coordinates: an infinite point is infinitely far (so
  // only an infinite radius reaches it), a NaN point is within no radius,
  // and k-NN orders both after every finite distance, by row.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t dims = 1; dims <= 3; ++dims) {
    Rng rng(31 + dims);
    PointSet points = random_points(150, dims, rng);
    for (std::size_t row : {3, 40, 41, 99}) points.mutable_point(row)[0] = inf;
    for (std::size_t row : {7, 77}) points.mutable_point(row)[dims - 1] = -inf;
    for (std::size_t row : {12, 13, 120}) points.mutable_point(row)[0] = nan;
    NnTree tree(points);
    for (int q = 0; q < 40; ++q) {
      const std::vector<double> query = random_query(dims, -0.5, 1.5, rng);
      for (double radius : {0.05, 0.3, 5.0, inf})
        EXPECT_EQ(radius_of(tree, query, radius),
                  brute_radius(points, query, radius))
            << dims << "-D, radius " << radius;
      for (std::size_t k : {1, 7, 145, 150})
        EXPECT_EQ(tree.k_nearest(query, k), brute_knn(points, query, k))
            << dims << "-D, k " << k;
    }
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

TEST_P(NnTreeProperty, RadiusMatchesBruteForceAndKdTree) {
  auto [n, dims, seed] = GetParam();
  Rng rng(seed + 1000);
  PointSet points = random_points(n, dims, rng);
  NnTree tree(points);
  KdTree kd(points, /*leaf_size=*/4);
  for (double radius : {0.0, 0.01, 0.1, 0.3, 2.0}) {
    for (int q = 0; q < 10; ++q) {
      const std::vector<double> query = random_query(dims, -0.2, 1.2, rng);
      const std::vector<std::size_t> expected =
          brute_radius(points, query, radius);
      EXPECT_EQ(radius_of(tree, query, radius), expected);
      EXPECT_EQ(kd.radius_query(query, radius), expected);
    }
    // DBSCAN's case: the query is one of the points.
    for (std::size_t i = 0; i < n; i += 7)
      EXPECT_EQ(radius_of(tree, points[i], radius),
                brute_radius(points, points[i], radius));
  }
}

TEST_P(NnTreeProperty, KnnMatchesBruteForce) {
  auto [n, dims, seed] = GetParam();
  Rng rng(seed + 5000);
  PointSet points = random_points(n, dims, rng);
  NnTree tree(points);
  for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{20}}) {
    for (int q = 0; q < 10; ++q) {
      const std::vector<double> query = random_query(dims, 0.0, 1.0, rng);
      EXPECT_EQ(tree.k_nearest(query, k), brute_knn(points, query, k));
    }
    // Autotune's case: the query is one of the points.
    for (std::size_t i = 0; i < n; i += 7)
      EXPECT_EQ(tree.k_nearest(points[i], k),
                brute_knn(points, points[i], k));
  }
}

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
                      NnTreeCase{100, 5, 7}, NnTreeCase{999, 1, 8},
                      NnTreeCase{300, 4, 9}, NnTreeCase{300, 5, 10}));

TEST(NnTreeTest, QuantisedCoordinatesWithManyTies) {
  // Coordinates on a coarse lattice: most queries have several nearest
  // points at exactly the same distance, many rows lie exactly on a
  // radius (lattice steps are exact in binary), and most k-th distances
  // are shared by several rows, in every dimension count.
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
      for (double radius : {0.0, 0.25, 0.375, 0.5}) {
        const std::vector<std::size_t> within =
            brute_radius(points, query, radius);
        EXPECT_EQ(radius_of(tree, query, radius), within) << dims << "-D";
        EXPECT_EQ(kd.radius_query(query, radius), within) << dims << "-D";
      }
      for (std::size_t k : {std::size_t{1}, std::size_t{6}, std::size_t{50}})
        EXPECT_EQ(tree.k_nearest(query, k), brute_knn(points, query, k))
            << dims << "-D";
    }
  }
}

/// Blobs of lattice points: six clusters whose coordinates are multiples of
/// 1/64, so the cloud holds many duplicates and exact distance ties, the
/// shapes where a subtree partitioned differently would answer differently.
PointSet lattice_blobs(std::size_t n, std::size_t dims, Rng& rng) {
  std::vector<std::vector<double>> centres(6, std::vector<double>(dims));
  for (auto& centre : centres)
    for (auto& c : centre) c = std::floor(rng.uniform(0.0, 64.0)) / 64.0;
  PointSet points(dims);
  std::vector<double> coords(dims);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& centre = centres[i % centres.size()];
    for (std::size_t d = 0; d < dims; ++d)
      coords[d] = centre[d] + std::floor(rng.uniform(-6.0, 6.0)) / 64.0;
    points.add(coords);
  }
  return points;
}

/// Queries at every point and half a lattice step off it (equidistant from
/// neighbouring lattice points): a tree built on pools of 2, 4 and 8
/// threads gives the serial build's nearest (with and without a hint),
/// radius and k-nearest answers to each.
void expect_parallel_build_answers_as_serial(std::size_t n, std::size_t dims) {
  Rng rng(40 + dims);
  const PointSet points = lattice_blobs(n, dims, rng);
  const NnTree serial(points);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const NnTree built(points, &pool);
    ASSERT_EQ(built.size(), serial.size());
    std::size_t mismatches = 0;
    std::vector<double> query(dims);
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (double offset : {0.0, 0.5 / 64.0}) {
        for (std::size_t d = 0; d < dims; ++d)
          query[d] = points[i][d] + offset;
        const std::size_t hint = (i * 7919) % points.size();
        if (built.nearest(query) != serial.nearest(query) ||
            built.nearest(query, hint) != serial.nearest(query, hint) ||
            radius_of(built, query, 1.5 / 64.0) !=
                radius_of(serial, query, 1.5 / 64.0) ||
            built.k_nearest(query, 8) != serial.k_nearest(query, 8))
          ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << dims << "-D, " << threads << " threads";
  }
}

TEST(NnTreeParallelBuild, LatticeBlobsIn2DAnswerAsTheSerialBuild) {
  expect_parallel_build_answers_as_serial(5000, 2);
}

TEST(NnTreeParallelBuild, LatticeBlobsIn3DAnswerAsTheSerialBuild) {
  expect_parallel_build_answers_as_serial(4500, 3);
}

}  // namespace
}  // namespace perftrack::geom
