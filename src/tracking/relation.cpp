#include "tracking/relation.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace perftrack::tracking {

namespace {
std::string describe_side(const std::set<ObjectId>& side) {
  std::string out = "{";
  bool first = true;
  for (ObjectId id : side) {
    if (!first) out += ",";
    out += std::to_string(id + 1);
    first = false;
  }
  out += "}";
  return out;
}
}  // namespace

std::string Relation::describe() const {
  return describe_side(left) + " = " + describe_side(right);
}

std::ptrdiff_t RelationSet::find_by_left(ObjectId a) const {
  for (std::size_t i = 0; i < relations.size(); ++i)
    if (relations[i].left.count(a)) return static_cast<std::ptrdiff_t>(i);
  return -1;
}

bool RelationSet::related(ObjectId a, ObjectId b) const {
  std::ptrdiff_t i = find_by_left(a);
  return i >= 0 && relations[static_cast<std::size_t>(i)].right.count(b) > 0;
}

RelationGraph::RelationGraph(std::size_t left_count, std::size_t right_count)
    : left_count_(left_count), right_count_(right_count) {
  parent_.resize(left_count + right_count);
  for (std::size_t i = 0; i < parent_.size(); ++i) parent_[i] = i;
  rank_.assign(parent_.size(), 0);
}

std::size_t RelationGraph::left_node(ObjectId a) const {
  PT_REQUIRE(a >= 0 && static_cast<std::size_t>(a) < left_count_,
             "left object id out of range");
  return static_cast<std::size_t>(a);
}

std::size_t RelationGraph::right_node(ObjectId b) const {
  PT_REQUIRE(b >= 0 && static_cast<std::size_t>(b) < right_count_,
             "right object id out of range");
  return left_count_ + static_cast<std::size_t>(b);
}

std::size_t RelationGraph::find(std::size_t node) {
  while (parent_[node] != node) {
    parent_[node] = parent_[parent_[node]];
    node = parent_[node];
  }
  return node;
}

void RelationGraph::unite(std::size_t x, std::size_t y) {
  x = find(x);
  y = find(y);
  if (x == y) return;
  if (rank_[x] < rank_[y]) std::swap(x, y);
  parent_[y] = x;
  if (rank_[x] == rank_[y]) ++rank_[x];
}

void RelationGraph::link(ObjectId a, ObjectId b) {
  unite(left_node(a), right_node(b));
}

void RelationGraph::merge_left(ObjectId a1, ObjectId a2) {
  unite(left_node(a1), left_node(a2));
}

void RelationGraph::merge_right(ObjectId b1, ObjectId b2) {
  unite(right_node(b1), right_node(b2));
}

bool RelationGraph::connected_left(ObjectId a1, ObjectId a2) {
  return find(left_node(a1)) == find(left_node(a2));
}

bool RelationGraph::connected_cross(ObjectId a, ObjectId b) {
  return find(left_node(a)) == find(right_node(b));
}

RelationSet RelationGraph::components() {
  std::map<std::size_t, Relation> by_root;
  for (std::size_t a = 0; a < left_count_; ++a)
    by_root[find(a)].left.insert(static_cast<ObjectId>(a));
  for (std::size_t b = 0; b < right_count_; ++b)
    by_root[find(left_count_ + b)].right.insert(static_cast<ObjectId>(b));

  RelationSet out;
  for (auto& [root, rel] : by_root) {
    if (!rel.left.empty() && !rel.right.empty()) {
      out.relations.push_back(std::move(rel));
    } else {
      for (ObjectId a : rel.left) out.unmatched_left.push_back(a);
      for (ObjectId b : rel.right) out.unmatched_right.push_back(b);
    }
  }
  std::sort(out.relations.begin(), out.relations.end(),
            [](const Relation& x, const Relation& y) {
              return *x.left.begin() < *y.left.begin();
            });
  std::sort(out.unmatched_left.begin(), out.unmatched_left.end());
  std::sort(out.unmatched_right.begin(), out.unmatched_right.end());
  return out;
}

}  // namespace perftrack::tracking
