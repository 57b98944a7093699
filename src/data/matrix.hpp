// Dense row-major matrix of doubles — the numeric substrate for the ML
// library. Deliberately small: just the operations the models need, with
// bounds checking in debug builds and contiguous row access via std::span.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace mfpa::data {

/// Row-major dense matrix. Value type; cheap to move.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix initialized to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Builds from nested initializer lists (rows must have equal arity).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return values_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return values_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {values_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {values_.data() + r * cols_, cols_};
  }

  /// Copies column c into `out` (resized to rows()), reusing its capacity
  /// across per-feature loops (binning). Throws std::out_of_range on a bad c.
  void column_into(std::size_t c, std::vector<double>& out) const;

  /// Reshapes to rows x cols in place, keeping the storage's capacity, so a
  /// buffer refilled for every serving batch allocates only to grow. No
  /// value carries meaning across a change of shape (new storage is 0).
  void resize(std::size_t rows, std::size_t cols);

  /// Appends a row (arity must match cols(), or the matrix must be empty in
  /// which case the arity defines cols()).
  void add_row(std::span<const double> values);

  /// New matrix with only the given rows, in the given order.
  Matrix select_rows(std::span<const std::size_t> indices) const;

  /// New matrix with only the given columns, in the given order.
  Matrix select_columns(std::span<const std::size_t> indices) const;

  /// Vertically concatenates `other` below this matrix (cols must match,
  /// or this matrix must be empty).
  void append(const Matrix& other);

  /// Raw storage (row-major).
  std::span<const double> data() const noexcept { return values_; }
  std::span<double> data() noexcept { return values_; }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> values_;
};

}  // namespace mfpa::data
