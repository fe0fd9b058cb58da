#pragma once
// Scalar baselines of the SEM operator kernels (test-only library
// `sem_reference`): the pre-fast-path algorithm — per-line dot products
// along x, scalar strided loops along y (and z), per-call scratch and
// tables — written as free functions of the discretization. The equivalence
// suites (sem_test, sem3d_test) compare both sem::Operators instantiations
// against them, and bench/extra_sem3d_kernel times the 3D fast path
// against them. Results have the same semantics as the member functions of
// the same name; the gradient writes one vector per axis argument.
// evaluate is the per-dimension scalar point evaluation sem::evaluate is
// checked against bitwise. helmholtz_jacobi_cg is the Helmholtz solve the
// fast-diagonalisation suites compare against, and helmholtz_rhs its
// right-hand side.

#include <vector>

#include "la/vector.hpp"
#include "sem/discretization.hpp"
#include "sem/hex3d.hpp"
#include "sem/operators.hpp"

namespace sem::reference {

/// y = K u (resized and zeroed first).
void apply_stiffness(const Discretization& d, const la::Vector& u, la::Vector& y);
void apply_stiffness(const Discretization3D& d, const la::Vector& u, la::Vector& y);

/// y = lambda M u + nu K u (stiffness apply, then the assembled mass term).
void apply_helmholtz(const Discretization& d, double lambda, double nu, const la::Vector& u,
                     la::Vector& y);
void apply_helmholtz(const Discretization3D& d, double lambda, double nu, const la::Vector& u,
                     la::Vector& y);

/// Nodal derivatives, mass-averaged at shared nodes.
void gradient(const Discretization& d, const la::Vector& u, la::Vector& dudx, la::Vector& dudy);
void gradient(const Discretization3D& d, const la::Vector& u, la::Vector& ddx, la::Vector& ddy,
              la::Vector& ddz);

/// Field value at a point: element search, one allocated Lagrange basis per
/// axis with its barycentric weights recomputed per call, and the nested
/// tensor-product sum. Throws std::out_of_range outside the domain or at a
/// non-finite point.
double evaluate(const Discretization& d, const la::Vector& field, double x, double y);
double evaluate(const Discretization3D& d, const la::Vector& field, double x, double y,
                double z);

/// The right-hand side b of the masked system the HelmholtzSolver solves:
/// M f minus the image of the Dirichlet lift, 0 on the Dirichlet nodes, and
/// without its constant-mode part when the operator is singular. ||b|| is
/// a zero guess's starting CG residual.
template <class Disc>
la::Vector helmholtz_rhs(const Operators<Disc>& ops, double lambda, double nu,
                         const std::vector<typename Disc::Boundary>& dirichlet,
                         const la::Vector& f, const typename Disc::template PointFn<>& g);

/// The HelmholtzSolver problem solved by the algorithm before fast
/// diagonalisation: (lambda M + nu K) u = M f with u = g on the nodes of
/// `dirichlet` (and zero mean when the operator is singular), by
/// Jacobi-preconditioned CG on the masked operator to rtol 1e-14. Throws
/// std::runtime_error if CG does not converge.
template <class Disc>
la::Vector helmholtz_jacobi_cg(const Operators<Disc>& ops, double lambda, double nu,
                               const std::vector<typename Disc::Boundary>& dirichlet,
                               const la::Vector& f, const typename Disc::template PointFn<>& g);

}  // namespace sem::reference
