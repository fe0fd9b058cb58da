#pragma once
// Dense row-major matrix with the small set of operations the SEM core and
// WPOD need: GEMM, GEMV, transpose and LU solve (partial pivoting). Sizes
// here are small (elemental operators, POD correlation matrices), so clarity
// wins over blocking.

#include <cstddef>
#include <vector>

#include "la/vector.hpp"

namespace la {

class DenseMatrix {
public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), a_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) { return a_[i * cols_ + j]; }
  double operator()(std::size_t i, std::size_t j) const { return a_[i * cols_ + j]; }

  double* row(std::size_t i) { return a_.data() + i * cols_; }
  const double* row(std::size_t i) const { return a_.data() + i * cols_; }

  double* data() { return a_.data(); }
  const double* data() const { return a_.data(); }

  static DenseMatrix identity(std::size_t n);
  DenseMatrix transposed() const;

  /// y = A * x
  void matvec(const double* x, double* y) const;
  Vector matvec(const Vector& x) const;

  /// C = A * B
  static DenseMatrix matmul(const DenseMatrix& A, const DenseMatrix& B);

  /// Frobenius norm.
  double frobenius() const;

private:
  std::size_t rows_ = 0, cols_ = 0;
  Vector a_;
};

/// Solve A x = b by LU with partial pivoting. A is overwritten.
/// Returns false if A is singular to working precision.
bool lu_solve(DenseMatrix A, const Vector& b, Vector& x);

}  // namespace la
