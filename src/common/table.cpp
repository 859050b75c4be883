#include "common/table.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace perftrack {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  PT_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  PT_REQUIRE(cells.size() == headers_.size(),
             "row width must match header width");
  rows_.push_back(std::move(cells));
}

void Table::begin_row() {
  finish_pending_row();
  building_ = true;
}

void Table::finish_pending_row() {
  if (building_) {
    PT_REQUIRE(pending_.size() == headers_.size(),
               "incomplete row: missing cells");
    rows_.push_back(std::move(pending_));
    pending_.clear();
    building_ = false;
  }
}

void Table::cell(std::string text) {
  PT_REQUIRE(building_, "cell() outside begin_row()");
  PT_REQUIRE(pending_.size() < headers_.size(), "too many cells in row");
  pending_.push_back(std::move(text));
}

void Table::cell(double value, int decimals) {
  cell(format_double(value, decimals));
}

void Table::cell(std::size_t value) { cell(std::to_string(value)); }
void Table::cell(long long value) { cell(std::to_string(value)); }

std::string Table::to_text(int indent) const {
  const_cast<Table*>(this)->finish_pending_row();
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::string pad(static_cast<std::size_t>(indent), ' ');
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = pad;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      if (c + 1 < row.size())
        line += std::string(widths[c] - row[c].size() + 2, ' ');
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  std::string underline = pad;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    underline += std::string(widths[c], '-');
    if (c + 1 < widths.size()) underline += "  ";
  }
  out += underline + '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace perftrack
