#include "common/table.hpp"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/error.hpp"

namespace perftrack {
namespace {

TEST(TableTest, RequiresColumns) {
  EXPECT_THROW(Table({}), PreconditionError);
}

TEST(TableTest, AddRowChecksWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), PreconditionError);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, IncrementalRows) {
  Table t({"name", "value", "count"});
  t.begin_row();
  t.cell("x");
  t.cell(3.14159, 2);
  t.cell(std::size_t{7});
  std::string text = t.to_text();
  EXPECT_NE(text.find("3.14"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
}

TEST(TableTest, IncompleteRowThrowsOnRender) {
  Table t({"a", "b"});
  t.begin_row();
  t.cell("only one");
  EXPECT_THROW(t.to_text(), PreconditionError);
}

TEST(TableTest, TooManyCellsThrows) {
  Table t({"a"});
  t.begin_row();
  t.cell("1");
  EXPECT_THROW(t.cell("2"), PreconditionError);
}

TEST(TableTest, CellOutsideRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), PreconditionError);
}

TEST(TableTest, TextAlignsColumns) {
  Table t({"h", "header2"});
  t.add_row({"longvalue", "x"});
  std::string text = t.to_text();
  // Header line, underline, one data row.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("---------"), std::string::npos);
}

}  // namespace
}  // namespace perftrack
