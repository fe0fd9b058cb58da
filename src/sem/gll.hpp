#pragma once
// Gauss–Lobatto–Legendre (GLL) machinery for spectral/hp elements:
// Legendre polynomials, GLL quadrature nodes/weights, the 1D collocation
// differentiation matrix, and Lagrange interpolation from GLL nodes to
// arbitrary points. This is the numerical core NEKTAR-style SEM builds on.

#include <cstddef>

#include "la/dense.hpp"
#include "la/vector.hpp"

namespace sem {

/// Legendre polynomial P_n(x) and its derivative, by recurrence.
double legendre(int n, double x);
double legendre_deriv(int n, double x);

/// GLL rule with P+1 points on [-1, 1] (P = polynomial order, P >= 1):
/// nodes are the roots of (1-x^2) P'_P(x), weights 2 / (P(P+1) [P_P(x_i)]^2).
struct GllRule {
  la::Vector nodes;    ///< size P+1, ascending, nodes[0] = -1, nodes[P] = 1
  la::Vector weights;  ///< size P+1
  la::Vector bary;     ///< barycentric weights 1 / prod_{m != k} (nodes[k] - nodes[m])
};
GllRule gll_rule(int P);

/// Collocation derivative matrix D: (du/dx)(x_i) = sum_j D(i,j) u(x_j) for a
/// degree-P polynomial sampled at the GLL nodes.
la::DenseMatrix gll_diff_matrix(const GllRule& rule);

/// Values of the P+1 Lagrange cardinal polynomials (through the GLL nodes)
/// at point x in [-1, 1], written to out[0..P]; out[k] interpolates node k.
void lagrange_basis_at(const GllRule& rule, double x, double* out);

}  // namespace sem
