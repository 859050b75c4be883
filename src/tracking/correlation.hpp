#pragma once
// Correlation matrices between frame objects (paper §3, Fig. 3).
//
// Every evaluator reports its findings as a matrix whose cell (i, j) is the
// probability/fraction with which object i of one frame corresponds to
// object j of another (or, for the SPMD evaluator, runs simultaneously
// with object j of the same frame). Cells below the outlier threshold
// (5% by default) are neglected.

#include <cstddef>
#include <string>
#include <vector>

namespace perftrack::tracking {

class CorrelationMatrix {
public:
  CorrelationMatrix() = default;
  CorrelationMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), values_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double at(std::size_t i, std::size_t j) const {
    return values_[i * cols_ + j];
  }
  void set(std::size_t i, std::size_t j, double v) {
    values_[i * cols_ + j] = v;
  }
  void add(std::size_t i, std::size_t j, double v) {
    values_[i * cols_ + j] += v;
  }

  /// Zero every cell strictly below `min_value` (the 5% outlier rule).
  void threshold(double min_value);

  /// Column index of the largest cell of row `i`, or -1 if the row is all
  /// zeros.
  std::ptrdiff_t row_argmax(std::size_t i) const;

  /// Render with percentage cells and the given prefixes for row/column
  /// labels (e.g. "A"/"B" giving A1..An x B1..Bm, 1-based like the paper).
  std::string to_text(const std::string& row_prefix,
                      const std::string& col_prefix) const;

  /// Cell-exact equality — the displacement identity gate compares the
  /// production and reference classifications with it.
  friend bool operator==(const CorrelationMatrix&,
                         const CorrelationMatrix&) = default;

private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> values_;
};

}  // namespace perftrack::tracking
