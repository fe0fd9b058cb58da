#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace la {

namespace {

/// QL iterations allowed per eigenvalue; two or three is typical.
constexpr std::size_t kMaxQlIterations = 60;

/// Householder reduction of the symmetric V, in place, to tridiagonal form
/// Q^T A Q: on return d holds its diagonal, e[1..n-1] its subdiagonal
/// (e[0] = 0) and V the orthogonal Q.
void tridiagonalize(DenseMatrix& V, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = V.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = V(n - 1, j);

  // Row i is reduced against the leading i x i block, bottom row first; d
  // carries row i of the still-unreduced block.
  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0, h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {  // already reduced: skip the reflection
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = V(i - 1, j);
        V(i, j) = 0.0;
        V(j, i) = 0.0;
      }
      d[i] = h;
      continue;
    }
    // the Householder vector u = d - g e_{i-1}, scaled against overflow
    for (std::size_t k = 0; k < i; ++k) {
      d[k] /= scale;
      h += d[k] * d[k];
    }
    double f = d[i - 1];
    double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
    e[i] = scale * g;
    h -= f * g;
    d[i - 1] = f - g;

    // p = A u / h into e, with u stored in column i of V
    for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;
    for (std::size_t j = 0; j < i; ++j) {
      f = d[j];
      V(j, i) = f;
      g = e[j] + V(j, j) * f;
      for (std::size_t k = j + 1; k < i; ++k) {
        g += V(k, j) * d[k];
        e[k] += V(k, j) * f;
      }
      e[j] = g;
    }
    f = 0.0;
    for (std::size_t j = 0; j < i; ++j) {
      e[j] /= h;
      f += e[j] * d[j];
    }
    // q = p - (u^T p / 2h) u, then A -= u q^T + q u^T on the lower triangle
    const double hh = f / (h + h);
    for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
    for (std::size_t j = 0; j < i; ++j) {
      f = d[j];
      g = e[j];
      for (std::size_t k = j; k < i; ++k) V(k, j) -= f * e[k] + g * d[k];
      d[j] = V(i - 1, j);
      V(i, j) = 0.0;
    }
    d[i] = h;
  }

  // accumulate the reflections into Q
  for (std::size_t i = 0; i + 1 < n; ++i) {
    V(n - 1, i) = V(i, i);
    V(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = V(k, i + 1) / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += V(k, i + 1) * V(k, j);
        for (std::size_t k = 0; k <= i; ++k) V(k, j) -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) V(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = V(n - 1, j);
    V(n - 1, j) = 0.0;
  }
  V(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// Implicit QL with Wilkinson shifts on the tridiagonal (d, e) from
/// tridiagonalize, with QT = Q^T: d becomes the eigenvalues (unsorted) and
/// QT's rows their eigenvectors (rows, so that each rotation runs along
/// contiguous memory). False when an eigenvalue needs more than
/// kMaxQlIterations or the matrix is not finite.
bool ql_implicit(DenseMatrix& QT, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = d.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::numeric_limits<double>::epsilon();
  double shift = 0.0, tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // split off the unreduced block l..m at the first negligible e[m]
    const double size = std::fabs(d[l]) + std::fabs(e[l]);
    if (!std::isfinite(size)) return false;
    tst1 = std::max(tst1, size);
    std::size_t m = l;
    while (m + 1 < n && std::fabs(e[m]) > eps * tst1) ++m;

    for (std::size_t iter = 0; m > l && std::fabs(e[l]) > eps * tst1; ++iter) {
      if (iter == kMaxQlIterations) return false;
      // Wilkinson shift from the leading 2 x 2 block
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = p < 0.0 ? -std::hypot(p, 1.0) : std::hypot(p, 1.0);
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      shift += h;

      // chase the bulge from m up to l with Givens rotations
      p = d[m];
      double c = 1.0, c2 = 1.0, c3 = 1.0, s = 0.0, s2 = 0.0;
      const double el1 = e[l + 1];
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        double* qi = QT.row(i);
        double* qi1 = QT.row(i + 1);
        for (std::size_t k = 0; k < n; ++k) {
          const double a = qi[k], b = qi1[k];
          qi1[k] = s * a + c * b;
          qi[k] = c * a - s * b;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift;
    e[l] = 0.0;
  }
  return true;
}

}  // namespace

EigResult eig_symmetric(const DenseMatrix& A) {
  const std::size_t n = A.rows();
  if (A.cols() != n) throw std::invalid_argument("eig_symmetric: not square");

  EigResult out;
  if (n == 0) {
    out.converged = true;
    return out;
  }
  DenseMatrix V = A;
  std::vector<double> d(n), e(n);
  tridiagonalize(V, d, e);
  DenseMatrix QT = V.transposed();
  out.converged = ql_implicit(QT, d, e);

  // sort descending by eigenvalue
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return d[a] > d[b]; });

  out.values.resize(n);
  out.vecs = DenseMatrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = d[order[k]];
    for (std::size_t i = 0; i < n; ++i) out.vecs(i, k) = QT(order[k], i);
  }
  return out;
}

}  // namespace la
