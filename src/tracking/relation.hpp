#pragma once
// Relations between the objects of two frames (paper §3, Fig. 2).
//
// Tracking a pair of frames (A, B) produces a k-partition P of A's objects
// and a k-partition Q of B's, with P_i ≡ Q_i. A Relation is one such pair
// of object sets; RelationGraph is the union-find structure the combiner
// uses to accumulate evaluator findings (cross links, same-side merges)
// before extracting the partition.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/frame.hpp"

namespace perftrack::tracking {

using cluster::ObjectId;

struct Relation {
  std::set<ObjectId> left;   ///< objects of frame A
  std::set<ObjectId> right;  ///< objects of frame B

  /// A one-to-one relation; wide relations group several objects the
  /// evaluators could not discriminate.
  bool univocal() const { return left.size() == 1 && right.size() == 1; }

  bool operator==(const Relation&) const = default;

  /// "{A1,A2} = {B3}" (1-based display numbering).
  std::string describe() const;
};

struct RelationSet {
  std::vector<Relation> relations;

  /// Objects that ended up in no relation (no cross link survived).
  std::vector<ObjectId> unmatched_left;
  std::vector<ObjectId> unmatched_right;

  /// Relation containing left object `a`, or -1.
  std::ptrdiff_t find_by_left(ObjectId a) const;

  /// True if `a` and `b` belong to the same relation.
  bool related(ObjectId a, ObjectId b) const;

  std::size_t size() const { return relations.size(); }

  auto begin() const { return relations.begin(); }
  auto end() const { return relations.end(); }
};

/// Union-find accumulator over the bipartite object sets of two frames.
class RelationGraph {
public:
  RelationGraph(std::size_t left_count, std::size_t right_count);

  std::size_t left_count() const { return left_count_; }
  std::size_t right_count() const { return right_count_; }

  /// Record that left object a corresponds to right object b.
  void link(ObjectId a, ObjectId b);
  /// Record that two left-side objects are the same entity.
  void merge_left(ObjectId a1, ObjectId a2);
  /// Record that two right-side objects are the same entity.
  void merge_right(ObjectId b1, ObjectId b2);

  bool connected_left(ObjectId a1, ObjectId a2);
  bool connected_cross(ObjectId a, ObjectId b);

  /// Extract the relations: connected components containing objects from
  /// both sides become Relations (sorted by smallest left member);
  /// single-side components are reported as unmatched.
  RelationSet components();

private:
  std::size_t find(std::size_t node);
  void unite(std::size_t x, std::size_t y);
  std::size_t left_node(ObjectId a) const;
  std::size_t right_node(ObjectId b) const;

  std::size_t left_count_, right_count_;
  std::vector<std::size_t> parent_;
  std::vector<std::uint8_t> rank_;
};

}  // namespace perftrack::tracking
