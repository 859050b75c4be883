#include "tracking/correlation.hpp"

#include <gtest/gtest.h>

namespace perftrack::tracking {
namespace {

TEST(CorrelationMatrixTest, DefaultIsEmpty) {
  CorrelationMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(CorrelationMatrixTest, SetGetAdd) {
  CorrelationMatrix m(2, 3);
  m.set(0, 1, 0.5);
  m.add(0, 1, 0.25);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

TEST(CorrelationMatrixTest, ThresholdZeroesSmallCells) {
  CorrelationMatrix m(1, 3);
  m.set(0, 0, 0.04);
  m.set(0, 1, 0.05);
  m.set(0, 2, 0.9);
  m.threshold(0.05);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.05);  // boundary kept
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.9);
}

TEST(CorrelationMatrixTest, RowArgmax) {
  CorrelationMatrix m(2, 3);
  m.set(0, 2, 0.6);
  m.set(0, 1, 0.4);
  EXPECT_EQ(m.row_argmax(0), 2);
  EXPECT_EQ(m.row_argmax(1), -1);
}

TEST(CorrelationMatrixTest, ToTextShowsPercentagesAndDots) {
  CorrelationMatrix m(2, 2);
  m.set(0, 0, 1.0);
  m.set(1, 1, 0.65);
  std::string text = m.to_text("A", "B");
  EXPECT_NE(text.find("A1"), std::string::npos);
  EXPECT_NE(text.find("B2"), std::string::npos);
  EXPECT_NE(text.find("100%"), std::string::npos);
  EXPECT_NE(text.find("65%"), std::string::npos);
  EXPECT_NE(text.find("."), std::string::npos);
}

}  // namespace
}  // namespace perftrack::tracking
