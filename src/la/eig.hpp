#pragma once
// Symmetric eigensolver: Householder reduction to tridiagonal form, then
// implicit QL iterations with Wilkinson shifts (the EISPACK tred2/tql2
// pair). Two callers: WPOD's method of snapshots, whose correlation matrix
// is Nsnap x Nsnap, and the Helmholtz solver's per-axis GLL eigenbases (a
// few dozen rows). O(n^3) with a small constant; the eigenvalues are
// accurate to a few ulps of ||A|| and the eigenvectors orthonormal to
// rounding.

#include <cstddef>

#include "la/dense.hpp"
#include "la/vector.hpp"

namespace la {

struct EigResult {
  Vector values;     ///< eigenvalues, sorted descending
  DenseMatrix vecs;  ///< column k is the unit eigenvector of values[k]
  /// False when an eigenvalue hit the QL iteration cap or the input was
  /// not finite.
  bool converged = false;
};

/// Full eigen-decomposition of a symmetric matrix.
EigResult eig_symmetric(const DenseMatrix& A);

}  // namespace la
