#pragma once
// Matrix-free SEM operators on a Discretization:
//   * diagonal (lumped-by-quadrature) mass matrix,
//   * stiffness apply  y = K u  with  K_ij = (grad phi_i, grad phi_j),
//   * Helmholtz apply  y = (lambda M + nu K) u,
//   * nodal gradient (mass-averaged across element boundaries),
//   * divergence and convective term for the Navier-Stokes solver.
// All element work is tensor-product: cost O(P^3) per element per apply.

#include <vector>

#include "la/vector.hpp"
#include "sem/discretization.hpp"

namespace sem {

/// Matrix-free 2D operators.
///
/// The apply paths run on the batched `la::simd` line kernels with
/// per-instance scratch (no allocation and no per-call index arithmetic);
/// the scalar baselines they are checked against live in the test-only
/// library under tests/reference. Scratch makes applies non-reentrant: one
/// Operators instance must not be applied from two threads at once (each
/// solver owns its Operators, so this never happens in-tree).
class Operators {
public:
  explicit Operators(const Discretization& d);

  const Discretization& disc() const { return *d_; }

  /// Assembled diagonal mass matrix (GLL quadrature is diagonal in the SEM
  /// basis, so this is exact for the discrete inner product).
  const la::Vector& mass_diag() const { return mass_; }

  /// y = K u (zeroed first).
  void apply_stiffness(const la::Vector& u, la::Vector& y) const;

  /// y = lambda * M u + nu * K u.
  void apply_helmholtz(double lambda, double nu, const la::Vector& u, la::Vector& y) const;

  /// Diagonal of lambda M + nu K (for Jacobi preconditioning).
  la::Vector helmholtz_diag(double lambda, double nu) const;

  /// Nodal derivative fields du/dx, du/dy: per-element collocation
  /// derivatives, mass-averaged at shared nodes.
  void gradient(const la::Vector& u, la::Vector& dudx, la::Vector& dudy) const;

  /// div = du/dx + dv/dy (nodal, mass-averaged).
  void divergence(const la::Vector& u, la::Vector& v, la::Vector& div) const;

  /// Convective term (u . grad) applied to each velocity component:
  /// conv_u = u du/dx + v du/dy, conv_v = u dv/dx + v dv/dy.
  void convection(const la::Vector& u, const la::Vector& v, la::Vector& conv_u,
                  la::Vector& conv_v) const;

  /// Wall shear stress tau = nu * d(u_t)/dn on the boundary faces of `tag`
  /// (u_t = velocity component tangential to the face, n = inward normal).
  /// Returns one sample per boundary node of the tag, ordered like
  /// disc().boundary_nodes(tag). The paper singles out mean WSS as "a very
  /// important quantity in biological flows" (Sec. 3.4).
  std::vector<double> wall_shear_stress(const la::Vector& u, const la::Vector& v, double nu,
                                        int tag) const;

  /// Discrete L2 norm: sqrt(u^T M u).
  double l2_norm(const la::Vector& u) const;

  /// Discrete integral of the field: 1^T M u.
  double integral(const la::Vector& u) const;

private:
  // element-local kernels; local arrays are (P+1)^2, (b*(P+1)+a) layout
  void elem_stiffness(const double* u, double* y) const;
  void elem_helmholtz(double lambda, double nu, const double* u, double* y) const;
  void elem_deriv_x(const double* u, double* dudx) const;
  void elem_deriv_y(const double* u, double* dudy) const;

  const Discretization* d_;
  la::Vector mass_;
  la::Vector stiff_diag_;    // assembled diag(K)
  la::DenseMatrix G_;        // D^T diag(w) D, the 1D weak-derivative kernel
  la::DenseMatrix GT_, DT_;  // transposes for the along-line (x) kernels
  std::vector<double> lmass_;  // per-element lumped mass jac*wa*wb
  // element scratch, hoisted out of the apply loops (see class comment)
  mutable std::vector<double> lu_, ly_, ldx_, ldy_;
  // global-field scratch for divergence/convection/wall_shear_stress
  mutable la::Vector gx_, gy_, hx_, hy_;
  double jac_;             // element Jacobian (dx/2)(dy/2), uniform grid
  double rx_, ry_;         // d(xi)/dx = 2/dx, d(eta)/dy = 2/dy
};

}  // namespace sem
