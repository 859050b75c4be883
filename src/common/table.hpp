#pragma once
// Column-oriented text tables.
//
// Every bench binary reproduces a paper table or figure series by filling a
// Table and rendering it as aligned text for the terminal. Cells are
// strings; numeric helpers format on insertion so a rendered table is what
// you saw when you built it.

#include <cstddef>
#include <string>
#include <vector>

namespace perftrack {

class Table {
public:
  explicit Table(std::vector<std::string> headers);

  std::size_t column_count() const { return headers_.size(); }
  std::size_t row_count() const {
    const_cast<Table*>(this)->finish_pending_row();
    return rows_.size();
  }

  /// Append a full row; must match column_count().
  void add_row(std::vector<std::string> cells);

  /// Incremental row building.
  void begin_row();
  void cell(std::string text);
  void cell(double value, int decimals);
  void cell(std::size_t value);
  void cell(long long value);

  /// Render with padded columns, a header underline and `indent` spaces
  /// before each line.
  std::string to_text(int indent = 0) const;

private:
  void finish_pending_row();

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
  bool building_ = false;
};

}  // namespace perftrack
