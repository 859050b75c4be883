#include "geom/pointset.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace perftrack::geom {
namespace {

TEST(PointSetTest, AddAndAccess) {
  PointSet points(2);
  points.add(std::vector<double>{1.0, 2.0});
  points.add(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(points.size(), 2u);
  EXPECT_EQ(points.dims(), 2u);
  EXPECT_DOUBLE_EQ(points[1][0], 3.0);
  EXPECT_DOUBLE_EQ(points[1][1], 4.0);
}

TEST(PointSetTest, RejectsDimensionMismatch) {
  PointSet points(2);
  EXPECT_THROW(points.add(std::vector<double>{1.0}), PreconditionError);
  EXPECT_THROW(points.add(std::vector<double>{1.0, 2.0, 3.0}),
               PreconditionError);
}

TEST(PointSetTest, RejectsUnconfiguredDims) {
  PointSet points;
  EXPECT_THROW(points.add(std::vector<double>{1.0}), PreconditionError);
}

TEST(PointSetTest, ConstructFromFlatData) {
  PointSet points(2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0][1], 2.0);
  EXPECT_THROW(PointSet(2, {1.0, 2.0, 3.0}), PreconditionError);
  EXPECT_THROW(PointSet(0, {}), PreconditionError);
}

TEST(PointSetTest, MutablePoint) {
  PointSet points(2, {1.0, 2.0});
  points.mutable_point(0)[1] = 9.0;
  EXPECT_DOUBLE_EQ(points[0][1], 9.0);
}

TEST(PointSetTest, Corners) {
  PointSet points(2, {0.0, 10.0, 4.0, -2.0, 2.0, 4.0});
  auto lo = points.min_corner();
  auto hi = points.max_corner();
  EXPECT_DOUBLE_EQ(lo[0], 0.0);
  EXPECT_DOUBLE_EQ(lo[1], -2.0);
  EXPECT_DOUBLE_EQ(hi[0], 4.0);
  EXPECT_DOUBLE_EQ(hi[1], 10.0);
}

TEST(PointSetTest, EmptyCornersAreZero) {
  PointSet points(3);
  EXPECT_EQ(points.min_corner(), std::vector<double>(3, 0.0));
  EXPECT_EQ(points.max_corner(), std::vector<double>(3, 0.0));
}

TEST(DistanceTest, Euclidean) {
  std::vector<double> a{0.0, 0.0};
  std::vector<double> b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, a), 0.0);
}

}  // namespace
}  // namespace perftrack::geom
