#pragma once
// Small dense linear-algebra kernel backing the ML baselines (linear
// regression normal equations, homography DLT via a symmetric eigen-solver).
// Deliberately simple: row-major double matrices sized at runtime; the
// problems here are tiny (<= a few hundred rows, <= 9 columns).

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace mvs::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mvs::linalg
