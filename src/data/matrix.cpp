#include "data/matrix.hpp"

#include <stdexcept>

namespace mfpa::data {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), values_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  for (const auto& row : init) {
    add_row(std::vector<double>(row.begin(), row.end()));
  }
}

void Matrix::column_into(std::size_t c, std::vector<double>& out) const {
  if (c >= cols_) throw std::out_of_range("Matrix::column: index out of range");
  out.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = values_[r * cols_ + c];
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  values_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::add_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = values.size();
  } else if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::add_row: arity mismatch");
  }
  values_.insert(values_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::select_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= rows_) {
      throw std::out_of_range("Matrix::select_rows: index out of range");
    }
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

Matrix Matrix::select_columns(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t c = 0; c < indices.size(); ++c) {
    if (indices[c] >= cols_) {
      throw std::out_of_range("Matrix::select_columns: index out of range");
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto src = row(r);
    auto dst = out.row(r);
    for (std::size_t c = 0; c < indices.size(); ++c) dst[c] = src[indices[c]];
  }
  return out;
}

void Matrix::append(const Matrix& other) {
  if (other.empty()) return;
  if (rows_ == 0 && cols_ == 0) {
    *this = other;
    return;
  }
  if (other.cols_ != cols_) {
    throw std::invalid_argument("Matrix::append: column mismatch");
  }
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  rows_ += other.rows_;
}

}  // namespace mfpa::data
