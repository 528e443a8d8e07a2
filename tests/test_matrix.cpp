#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

namespace ppat::linalg {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, InitializerList) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, Transpose) {
  const Matrix a = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(t.transposed(), a), 0.0);
}

TEST(Matrix, AddToDiagonal) {
  Matrix a = Matrix::identity(3);
  a.add_to_diagonal(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(Matrix, RowSpanIsMutable) {
  Matrix a(2, 2);
  auto r = a.row(1);
  r[0] = 9.0;
  EXPECT_DOUBLE_EQ(a(1, 0), 9.0);
}

TEST(VectorOps, DotAndNorm) {
  const Vector a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

TEST(VectorOps, Axpy) {
  const Vector x = {1.0, 2.0};
  Vector y = {10.0, 20.0};
  axpy(3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

}  // namespace
}  // namespace ppat::linalg
