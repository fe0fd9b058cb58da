#pragma once
// Preconditioned conjugate gradient, plus the "good initial state" predictor
// the paper credits for accelerating NEKTAR's Helmholtz/Poisson solves: a
// Fischer-style projection of the new right-hand side onto the span of
// previously computed solutions.

#include <cstddef>
#include <deque>
#include <functional>

#include "la/vector.hpp"

namespace la {

/// Abstract SPD operator: y = A x. The SEM operators implement it
/// matrix-free.
using LinearOperator = std::function<void(const double* x, double* y)>;

/// Preconditioner application: z = M^{-1} r (n = vector length).
using Preconditioner = std::function<void(const double* r, double* z, std::size_t n)>;

Preconditioner identity_preconditioner();
/// diag must outlive the returned callable.
Preconditioner jacobi_preconditioner(const Vector& diag);

struct CgOptions {
  double rtol = 1e-10;       ///< stop when ||r|| <= rtol * ||b||
  double atol = 1e-14;       ///< ... or ||r|| <= atol
  std::size_t max_iter = 5000;
};

struct CgResult {
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;
};

/// Solve A x = b; x holds the initial guess on entry and the solution on
/// exit.
CgResult cg_solve(const LinearOperator& A, const Vector& b, Vector& x,
                  const Preconditioner& M, const CgOptions& opt = {});

/// Successive-solution projection (Fischer 1998): keeps up to `depth`
/// previous solve solutions and A-applied images, and predicts the initial
/// guess for a new right-hand side as the A-orthogonal projection of b onto
/// their span. Used by the unsteady solvers where the RHS evolves smoothly
/// in time, cutting CG iteration counts several-fold.
class SolutionProjector {
public:
  explicit SolutionProjector(std::size_t depth = 8) : depth_(depth) {}

  /// Fill `guess` from the stored basis given the new rhs b.
  /// Returns the number of basis vectors used (0 -> zero guess).
  std::size_t predict(const Vector& b, Vector& guess) const;

  /// Record a converged solution so later predicts can use it.
  void record(const LinearOperator& A, const Vector& x);

  std::size_t size() const { return basis_.size(); }
  void clear() {
    basis_.clear();
    images_.clear();
  }

  /// Warm-start state access for checkpoint/restart: the stored basis changes
  /// which initial guess the next solve starts from, so a bitwise-identical
  /// restart must carry it across.
  const std::deque<Vector>& basis() const { return basis_; }
  const std::deque<Vector>& images() const { return images_; }
  void set_state(std::deque<Vector> basis, std::deque<Vector> images) {
    basis_ = std::move(basis);
    images_ = std::move(images);
    while (basis_.size() > depth_) basis_.pop_front();
    while (images_.size() > depth_) images_.pop_front();
  }

private:
  std::size_t depth_;
  std::deque<Vector> basis_;   // previous solutions, A-orthonormalised
  std::deque<Vector> images_;  // A * basis_[k]
};

}  // namespace la
