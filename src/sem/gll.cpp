#include "sem/gll.hpp"

#include <cmath>
#include <stdexcept>

namespace sem {

double legendre(int n, double x) {
  if (n == 0) return 1.0;
  if (n == 1) return x;
  double pm1 = 1.0, p = x;
  for (int k = 2; k <= n; ++k) {
    const double pk = ((2.0 * k - 1.0) * x * p - (k - 1.0) * pm1) / k;
    pm1 = p;
    p = pk;
  }
  return p;
}

double legendre_deriv(int n, double x) {
  if (n == 0) return 0.0;
  // (1-x^2) P'_n = n (P_{n-1} - x P_n); handle the endpoints by the known
  // closed form P'_n(+-1) = (+-1)^{n-1} n(n+1)/2.
  if (std::fabs(1.0 - x * x) < 1e-14) {
    const double sign = x > 0.0 ? 1.0 : (n % 2 == 0 ? -1.0 : 1.0);
    return sign * 0.5 * n * (n + 1.0);
  }
  return n * (legendre(n - 1, x) - x * legendre(n, x)) / (1.0 - x * x);
}

GllRule gll_rule(int P) {
  if (P < 1) throw std::invalid_argument("gll_rule: order must be >= 1");
  const int n = P + 1;
  GllRule r;
  r.nodes.resize(n);
  r.weights.resize(n);
  r.nodes[0] = -1.0;
  r.nodes[P] = 1.0;

  // Interior nodes: roots of P'_P. Chebyshev-Gauss-Lobatto points are good
  // starting guesses for Newton's iteration.
  for (int i = 1; i < P; ++i) {
    double x = -std::cos(M_PI * i / P);
    for (int it = 0; it < 100; ++it) {
      // f = P'_P(x); f' from the Legendre ODE:
      // (1-x^2) P''_P = 2x P'_P - P(P+1) P_P
      const double f = legendre_deriv(P, x);
      const double fp = (2.0 * x * f - P * (P + 1.0) * legendre(P, x)) / (1.0 - x * x);
      const double dx = f / fp;
      x -= dx;
      if (std::fabs(dx) < 1e-15) break;
    }
    r.nodes[i] = x;
  }

  for (int i = 0; i < n; ++i) {
    const double L = legendre(P, r.nodes[i]);
    r.weights[i] = 2.0 / (P * (P + 1.0) * L * L);
  }

  r.bary.resize(n);
  for (int k = 0; k < n; ++k) {
    double prod = 1.0;
    for (int m = 0; m < n; ++m)
      if (m != k) prod *= (r.nodes[k] - r.nodes[m]);
    r.bary[k] = 1.0 / prod;
  }
  return r;
}

la::DenseMatrix gll_diff_matrix(const GllRule& rule) {
  const std::size_t n = rule.nodes.size();
  const int P = static_cast<int>(n) - 1;
  la::DenseMatrix D(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double Li = legendre(P, rule.nodes[i]);
      const double Lj = legendre(P, rule.nodes[j]);
      D(i, j) = (Li / Lj) / (rule.nodes[i] - rule.nodes[j]);
    }
  }
  D(0, 0) = -0.25 * P * (P + 1.0);
  D(n - 1, n - 1) = 0.25 * P * (P + 1.0);
  // interior diagonal entries are zero for GLL collocation
  return D;
}

void lagrange_basis_at(const GllRule& rule, double x, double* out) {
  const std::size_t n = rule.nodes.size();
  // If x coincides with a node, the basis is a Kronecker delta.
  for (std::size_t k = 0; k < n; ++k) {
    if (std::fabs(x - rule.nodes[k]) < 1e-14) {
      for (std::size_t m = 0; m < n; ++m) out[m] = m == k ? 1.0 : 0.0;
      return;
    }
  }
  const double* bw = rule.bary.data();
  double denom = 0.0;
  for (std::size_t k = 0; k < n; ++k) denom += bw[k] / (x - rule.nodes[k]);
  for (std::size_t k = 0; k < n; ++k) out[k] = (bw[k] / (x - rule.nodes[k])) / denom;
}

}  // namespace sem
