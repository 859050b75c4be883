#include "geom/pointset.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace perftrack::geom {

PointSet::PointSet(std::size_t dims, std::vector<double> data)
    : dims_(dims), data_(std::move(data)) {
  PT_REQUIRE(dims_ > 0, "point set needs at least one dimension");
  PT_REQUIRE(data_.size() % dims_ == 0,
             "data length must be a multiple of dims");
}

void PointSet::add(std::span<const double> coords) {
  PT_REQUIRE(dims_ > 0, "point set dims not configured");
  PT_REQUIRE(coords.size() == dims_, "coordinate count mismatch");
  data_.insert(data_.end(), coords.begin(), coords.end());
}

std::vector<double> PointSet::min_corner() const {
  std::vector<double> lo(dims_, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < size(); ++i) {
    auto p = (*this)[i];
    for (std::size_t d = 0; d < dims_; ++d) lo[d] = std::min(lo[d], p[d]);
  }
  if (empty()) lo.assign(dims_, 0.0);
  return lo;
}

std::vector<double> PointSet::max_corner() const {
  std::vector<double> hi(dims_, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < size(); ++i) {
    auto p = (*this)[i];
    for (std::size_t d = 0; d < dims_; ++d) hi[d] = std::max(hi[d], p[d]);
  }
  if (empty()) hi.assign(dims_, 0.0);
  return hi;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  PT_ASSERT(a.size() == b.size(), "dimension mismatch in distance");
  double s = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

double distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

}  // namespace perftrack::geom
