// Dense row-major matrix/vector types sized for Gaussian-process work
// (hundreds to a few thousand rows). No external BLAS: the reproduction must
// build offline, and GP fitting cost is dominated by O(n^3) Cholesky on
// n <= ~1500, well within scalar-code budgets.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace ppat::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized (or filled with `fill`).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  Matrix transposed() const;

  /// Adds `value` to every diagonal entry (square matrices only).
  void add_to_diagonal(double value);

  /// Max |a_ij - b_ij|; matrices must have equal shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- Vector helpers (free functions on linalg::Vector) ----

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);  ///< Euclidean norm.

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

}  // namespace ppat::linalg
