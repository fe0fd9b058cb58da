#include "la/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "la/simd.hpp"

namespace la {

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix I(n, n);
  for (std::size_t i = 0; i < n; ++i) I(i, i) = 1.0;
  return I;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix T(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) T(j, i) = (*this)(i, j);
  return T;
}

void DenseMatrix::matvec(const double* x, double* y) const {
  for (std::size_t i = 0; i < rows_; ++i) y[i] = simd::dot(row(i), x, cols_);
}

Vector DenseMatrix::matvec(const Vector& x) const {
  if (x.size() != cols_) throw std::invalid_argument("matvec: size mismatch");
  Vector y(rows_);
  matvec(x.data(), y.data());
  return y;
}

DenseMatrix DenseMatrix::matmul(const DenseMatrix& A, const DenseMatrix& B) {
  if (A.cols() != B.rows()) throw std::invalid_argument("matmul: size mismatch");
  DenseMatrix C(A.rows(), B.cols());
  // ikj order keeps the inner loop streaming over rows of B and C.
  for (std::size_t i = 0; i < A.rows(); ++i) {
    double* ci = C.row(i);
    for (std::size_t k = 0; k < A.cols(); ++k) {
      const double aik = A(i, k);
      if (aik == 0.0) continue;
      simd::axpy(aik, B.row(k), ci, B.cols());
    }
  }
  return C;
}

double DenseMatrix::frobenius() const {
  double s = 0.0;
  for (std::size_t i = 0; i < rows_ * cols_; ++i) s += a_[i] * a_[i];
  return std::sqrt(s);
}

bool lu_solve(DenseMatrix A, const Vector& b, Vector& x) {
  const std::size_t n = A.rows();
  if (A.cols() != n || b.size() != n) throw std::invalid_argument("lu_solve: size mismatch");
  std::vector<std::size_t> piv(n);
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double pmax = std::fabs(A(k, k));
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::fabs(A(i, k)) > pmax) {
        pmax = std::fabs(A(i, k));
        p = i;
      }
    if (pmax < 1e-300) return false;
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(A(k, j), A(p, j));
      std::swap(piv[k], piv[p]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      A(i, k) /= A(k, k);
      const double lik = A(i, k);
      if (lik != 0.0)
        for (std::size_t j = k + 1; j < n; ++j) A(i, j) -= lik * A(k, j);
    }
  }

  x.resize(n);
  // forward substitution on permuted rhs
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[piv[i]];
    for (std::size_t j = 0; j < i; ++j) s -= A(i, j) * x[j];
    x[i] = s;
  }
  // back substitution
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= A(ii, j) * x[j];
    x[ii] = s / A(ii, ii);
  }
  return true;
}

}  // namespace la
