#include "tracking/relation.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace perftrack::tracking {
namespace {

TEST(RelationTest, UnivocalAndDescribe) {
  Relation r{{0}, {2}};
  EXPECT_TRUE(r.univocal());
  EXPECT_EQ(r.describe(), "{1} = {3}");
  Relation wide{{0, 1}, {2}};
  EXPECT_FALSE(wide.univocal());
  EXPECT_EQ(wide.describe(), "{1,2} = {3}");
}

TEST(RelationSetTest, Lookups) {
  RelationSet set;
  set.relations.push_back(Relation{{0}, {1}});
  set.relations.push_back(Relation{{1, 2}, {0, 2}});
  EXPECT_EQ(set.find_by_left(0), 0);
  EXPECT_EQ(set.find_by_left(2), 1);
  EXPECT_EQ(set.find_by_left(9), -1);
  EXPECT_TRUE(set.related(0, 1));
  EXPECT_TRUE(set.related(1, 0));
  EXPECT_FALSE(set.related(0, 0));
  EXPECT_FALSE(set.related(9, 9));
}

TEST(RelationGraphTest, SimpleLinks) {
  RelationGraph g(3, 3);
  g.link(0, 0);
  g.link(1, 2);
  RelationSet set = g.components();
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.relations[0], (Relation{{0}, {0}}));
  EXPECT_EQ(set.relations[1], (Relation{{1}, {2}}));
  EXPECT_EQ(set.unmatched_left, (std::vector<ObjectId>{2}));
  EXPECT_EQ(set.unmatched_right, (std::vector<ObjectId>{1}));
}

TEST(RelationGraphTest, MergesBuildWideRelations) {
  RelationGraph g(2, 3);
  g.link(0, 0);
  g.merge_right(0, 1);  // B0 and B1 are the same entity
  RelationSet set = g.components();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.relations[0], (Relation{{0}, {0, 1}}));
}

TEST(RelationGraphTest, TransitiveClosureAcrossSides) {
  RelationGraph g(3, 3);
  g.link(0, 0);
  g.link(1, 0);  // both A0 and A1 map to B0 -> one wide relation
  g.link(1, 1);
  RelationSet set = g.components();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.relations[0], (Relation{{0, 1}, {0, 1}}));
}

TEST(RelationGraphTest, MergeLeftWithoutCrossStaysUnmatched) {
  RelationGraph g(2, 1);
  g.merge_left(0, 1);
  RelationSet set = g.components();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.unmatched_left.size(), 2u);
  EXPECT_EQ(set.unmatched_right.size(), 1u);
}

TEST(RelationGraphTest, ConnectivityQueries) {
  RelationGraph g(2, 2);
  EXPECT_FALSE(g.connected_left(0, 1));
  g.link(0, 0);
  g.link(1, 0);
  EXPECT_TRUE(g.connected_left(0, 1));
  EXPECT_TRUE(g.connected_cross(0, 0));
  EXPECT_FALSE(g.connected_cross(0, 1));
}

TEST(RelationGraphTest, OutOfRangeThrows) {
  RelationGraph g(2, 2);
  EXPECT_THROW(g.link(2, 0), PreconditionError);
  EXPECT_THROW(g.link(0, 2), PreconditionError);
  EXPECT_THROW(g.merge_left(-1, 0), PreconditionError);
}

TEST(RelationGraphTest, RelationsSortedByLeftMember) {
  RelationGraph g(3, 3);
  g.link(2, 0);
  g.link(0, 2);
  g.link(1, 1);
  RelationSet set = g.components();
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(*set.relations[0].left.begin(), 0);
  EXPECT_EQ(*set.relations[1].left.begin(), 1);
  EXPECT_EQ(*set.relations[2].left.begin(), 2);
}

}  // namespace
}  // namespace perftrack::tracking
