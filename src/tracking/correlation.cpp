#include "tracking/correlation.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace perftrack::tracking {

void CorrelationMatrix::threshold(double min_value) {
  for (double& v : values_)
    if (v < min_value) v = 0.0;
}

std::ptrdiff_t CorrelationMatrix::row_argmax(std::size_t i) const {
  std::ptrdiff_t best = -1;
  double best_value = 0.0;
  for (std::size_t j = 0; j < cols_; ++j) {
    if (at(i, j) > best_value) {
      best_value = at(i, j);
      best = static_cast<std::ptrdiff_t>(j);
    }
  }
  return best;
}

std::string CorrelationMatrix::to_text(const std::string& row_prefix,
                                       const std::string& col_prefix) const {
  // Column labels are 1-based to match the paper's numbering.
  std::vector<std::size_t> widths(cols_, 0);
  std::vector<std::string> headers(cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    headers[j] = col_prefix + std::to_string(j + 1);
    widths[j] = headers[j].size();
  }
  std::vector<std::vector<std::string>> cells(rows_,
                                              std::vector<std::string>(cols_));
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      double v = at(i, j);
      cells[i][j] = v == 0.0 ? "." : format_double(v * 100.0, 0) + "%";
      widths[j] = std::max(widths[j], cells[i][j].size());
    }
  }
  std::size_t row_label_width = row_prefix.size() + std::to_string(rows_).size();

  std::string out(row_label_width + 2, ' ');
  for (std::size_t j = 0; j < cols_; ++j) {
    out += std::string(widths[j] - headers[j].size(), ' ') + headers[j];
    out += "  ";
  }
  out += '\n';
  for (std::size_t i = 0; i < rows_; ++i) {
    std::string label = row_prefix + std::to_string(i + 1);
    out += label + std::string(row_label_width - label.size() + 2, ' ');
    for (std::size_t j = 0; j < cols_; ++j) {
      out += std::string(widths[j] - cells[i][j].size(), ' ') + cells[i][j];
      out += "  ";
    }
    out += '\n';
  }
  return out;
}

}  // namespace perftrack::tracking
