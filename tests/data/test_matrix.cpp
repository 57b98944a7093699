#include "data/matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mfpa::data {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, FillConstruction) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, ElementWrite) {
  Matrix m(2, 2);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
}

TEST(Matrix, RowSpanIsContiguous) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const auto row = m.row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
}

TEST(Matrix, RowSpanMutation) {
  Matrix m(1, 2);
  m.row(0)[1] = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
}

TEST(Matrix, ColumnCopy) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  std::vector<double> col{9.0};
  m.column_into(1, col);
  EXPECT_EQ(col, (std::vector<double>{2.0, 4.0, 6.0}));
  EXPECT_THROW(m.column_into(2, col), std::out_of_range);
}

TEST(Matrix, AddRowDefinesArity) {
  Matrix m;
  m.add_row(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(m.cols(), 2u);
  m.add_row(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_THROW(m.add_row(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, SelectRows) {
  Matrix m{{1.0}, {2.0}, {3.0}};
  const std::vector<std::size_t> idx{2, 0, 2};
  const Matrix s = m.select_rows(idx);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(s(2, 0), 3.0);
}

TEST(Matrix, SelectRowsOutOfRangeThrows) {
  Matrix m{{1.0}};
  const std::vector<std::size_t> idx{1};
  EXPECT_THROW(m.select_rows(idx), std::out_of_range);
}

TEST(Matrix, SelectColumns) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const std::vector<std::size_t> idx{2, 0};
  const Matrix s = m.select_columns(idx);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 4.0);
}

TEST(Matrix, SelectColumnsOutOfRangeThrows) {
  Matrix m{{1.0}};
  const std::vector<std::size_t> idx{3};
  EXPECT_THROW(m.select_columns(idx), std::out_of_range);
}

TEST(Matrix, AppendStacksRows) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0, 4.0}, {5.0, 6.0}};
  a.append(b);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_DOUBLE_EQ(a(2, 1), 6.0);
}

TEST(Matrix, AppendToEmptyCopies) {
  Matrix a;
  Matrix b{{1.0}};
  a.append(b);
  EXPECT_EQ(a.rows(), 1u);
}

TEST(Matrix, AppendEmptyIsNoop) {
  Matrix a{{1.0}};
  a.append(Matrix{});
  EXPECT_EQ(a.rows(), 1u);
}

TEST(Matrix, AppendMismatchThrows) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0}};
  EXPECT_THROW(a.append(b), std::invalid_argument);
}

TEST(Matrix, Equality) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0, 2.0}};
  Matrix c{{1.0, 3.0}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace mfpa::data
