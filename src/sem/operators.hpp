#pragma once
// Matrix-free SEM operators on a 2D (Discretization) or 3D
// (Discretization3D) spectral-element discretization:
//   * diagonal (lumped-by-quadrature) mass matrix,
//   * stiffness apply  y = K u  with  K_ij = (grad phi_i, grad phi_j),
//   * Helmholtz apply  y = (lambda M + nu K) u,
//   * nodal gradient (mass-averaged across element boundaries),
//   * divergence and convective term for the Navier-Stokes solver.
// All element work is sum-factorised along each axis: one 1D (P+1)x(P+1)
// kernel per axis, so an apply costs O(P^(d+1)) per element in d dimensions.

#include <array>
#include <cstddef>
#include <vector>

#include "la/dense.hpp"
#include "la/vector.hpp"
#include "sem/discretization.hpp"
#include "sem/hex3d.hpp"

namespace sem {

/// Matrix-free operators, instantiated for Discretization and
/// Discretization3D (`sem::Operators ops(d);` deduces which).
///
/// The apply paths run on the batched `la::simd` line kernels with
/// per-instance scratch (no allocation and no per-call index arithmetic);
/// the scalar baselines they are checked against live in the test-only
/// library under tests/reference. The element sweeps split over the
/// intra-rank lanes on large fields (sem/split.hpp): each lane gathers into
/// its own scratch and writes each element's local result into a
/// per-element stage, and the stage is then scatter-added in element order
/// (the gradient's components each on a lane of their own), so every node
/// sums its contributions in the one-lane order. The scratch and the stage
/// make applies non-reentrant: one Operators instance must not be applied
/// from two threads at once. A NavierStokes and its three HelmholtzSolvers
/// share one instance and apply it from the stepping thread only.
template <class Disc>
class Operators {
public:
  static constexpr std::size_t kDim = Disc::kDim;
  /// One nodal field per axis (gradient) or per velocity component.
  using Fields = std::array<la::Vector, kDim>;

  explicit Operators(const Disc& d);

  const Disc& disc() const { return *d_; }

  /// Assembled diagonal mass matrix (GLL quadrature is diagonal in the SEM
  /// basis, so this is exact for the discrete inner product).
  const la::Vector& mass_diag() const { return mass_; }

  /// y = K u (zeroed first).
  void apply_stiffness(const la::Vector& u, la::Vector& y) const;

  /// y = lambda M u + nu K u in a single gather/kernel/scatter sweep: the
  /// diagonal mass term is folded into the element pass (the per-element
  /// lumped masses sum to the assembled diagonal).
  void apply_helmholtz(double lambda, double nu, const la::Vector& u, la::Vector& y) const;

  /// Diagonal of lambda M + nu K (for Jacobi preconditioning).
  la::Vector helmholtz_diag(double lambda, double nu) const;

  /// Nodal derivatives du/dx_k, one field per axis: per-element collocation
  /// derivatives, mass-averaged at shared nodes.
  void gradient(const la::Vector& u, Fields& grad) const;

  /// div = sum_k du_k/dx_k (nodal, mass-averaged).
  void divergence(const Fields& u, la::Vector& div) const;

  /// Convective term (u . grad) applied to each velocity component:
  /// conv_c = sum_k u_k du_c/dx_k.
  void convection(const Fields& u, Fields& conv) const;

  /// Wall shear stress tau = nu * d(u_t)/dn on the boundary faces of `tag`
  /// (u_t = velocity component tangential to the face, n = inward normal).
  /// Returns one sample per boundary node of the tag, ordered like
  /// disc().boundary_nodes(tag). The paper singles out mean WSS as "a very
  /// important quantity in biological flows" (Sec. 3.4).
  std::vector<double> wall_shear_stress(const la::Vector& u, const la::Vector& v, double nu,
                                        int tag) const
    requires(kDim == 2);

  /// Discrete integral of the field: 1^T M u.
  double integral(const la::Vector& u) const;

private:
  /// Lanes the next element sweep is offered; sizes the stage and the
  /// per-lane scratch on first use.
  int stage_lanes() const;
  /// Gather u per element, run `kernel(local u, local y)` into the stage,
  /// scatter-add the stage into y in element order.
  template <class Kernel>
  void sweep(const la::Vector& u, la::Vector& y, Kernel&& kernel) const;
  /// Local y = nu K_e u (zeroed first).
  void elem_stiffness(double nu, const double* u, double* y) const;
  /// out[k] += coef[k] * (M applied along axis k) u for every axis k, from
  /// the transposed MT along the contiguous axis 0. `weighted` scales each
  /// line by the quadrature weights of the other axes (stiffness); the
  /// gradient passes it false.
  void elem_axes(const la::DenseMatrix& M, const la::DenseMatrix& MT, bool weighted,
                 const std::array<double, kDim>& coef, const double* u,
                 const std::array<double*, kDim>& out) const;

  const Disc* d_;
  la::Vector mass_;
  la::Vector stiff_diag_;    // assembled diag(K)
  la::DenseMatrix G_;        // D^T diag(w) D, the 1D weak-derivative kernel
  la::DenseMatrix GT_, DT_;  // transposes for the along-line (axis 0) kernels
  std::vector<double> wt_;     // weights of axes 1..d-1: w (2D), w (x) w (3D)
  std::vector<double> lmass_;  // per-element lumped mass jac * prod_k w
  // per-lane gather scratch and the per-element stage, num_elements() x
  // kDim x nodes_per_element(), hoisted out of the sweeps (see class comment)
  mutable std::vector<std::vector<double>> lane_u_;
  mutable std::vector<double> stage_;
  // global-field scratch for divergence/convection/wall_shear_stress
  mutable Fields grad_;
  double jac_;                  // element Jacobian prod_k h_k/2, uniform grid
  std::array<double, kDim> r_;  // d(xi_k)/dx_k = 2/h_k
};

extern template class Operators<Discretization>;
extern template class Operators<Discretization3D>;

}  // namespace sem
