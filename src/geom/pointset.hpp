#pragma once
// Dense N-dimensional point storage.
//
// Points live in a flat row-major buffer (point-major) so neighbour queries
// walk contiguous memory (Core Guidelines Per.16/Per.19: compact data,
// predictable access). Dimensionality is dynamic because the metric space is
// chosen at run time (the paper defaults to 2-D Instructions x IPC but the
// technique generalises to any number of metrics).

#include <cstddef>
#include <span>
#include <vector>

namespace perftrack::geom {

class PointSet {
public:
  PointSet() = default;
  explicit PointSet(std::size_t dims) : dims_(dims) {}
  PointSet(std::size_t dims, std::vector<double> data);

  std::size_t dims() const { return dims_; }
  std::size_t size() const { return dims_ ? data_.size() / dims_ : 0; }
  bool empty() const { return data_.empty(); }

  /// Append one point; coords.size() must equal dims().
  void add(std::span<const double> coords);

  /// Read-only view of point `i`.
  std::span<const double> operator[](std::size_t i) const {
    return {data_.data() + i * dims_, dims_};
  }

  /// Mutable view of point `i`.
  std::span<double> mutable_point(std::size_t i) {
    return {data_.data() + i * dims_, dims_};
  }

  std::span<const double> raw() const { return data_; }

  void reserve(std::size_t points) { data_.reserve(points * dims_); }

  /// Coordinate-wise minimum/maximum across all points.
  std::vector<double> min_corner() const;
  std::vector<double> max_corner() const;

private:
  std::size_t dims_ = 0;
  std::vector<double> data_;
};

/// Squared Euclidean distance between two equal-length coordinate spans.
double squared_distance(std::span<const double> a, std::span<const double> b);

/// Euclidean distance.
double distance(std::span<const double> a, std::span<const double> b);

}  // namespace perftrack::geom
