#pragma once
// Helmholtz / Poisson boundary-value solver on a 2D or 3D discretization:
//   (lambda M + nu K) u = M f   with Dirichlet values on selected boundaries
// (mesh tags in 2D, box faces in 3D) and natural (zero-Neumann) conditions
// elsewhere. Solved by preconditioned CG on the free dofs (paper: NEKTAR's
// Helmholtz/Poisson solvers are CG with preconditioning and initial-state
// prediction); every solve is held to the CG tolerance.
//
// The geometry picks the method, in either dimension:
//   * Box meshes: the exact inverse of the masked operator, by fast
//     diagonalisation. An unmasked grid (every Discretization3D, and a
//     QuadMesh with no cell deactivated) is one tensor-product GLL lattice.
//     When its Dirichlet set is a union of whole sides, the operator is the
//     Kronecker sum
//       lambda My(x)Mx + nu (My(x)Kx + Ky(x)Mx)                       (2D)
//       lambda Mz(x)My(x)Mx + nu (Mz(x)My(x)Kx + Mz(x)Ky(x)Mx + Kz(x)My(x)Mx)
//     of each axis's assembled 1D mass and stiffness, with a Dirichlet side
//     removing one end index of one axis. Per axis, K s = mu M s on the
//     free indices gives an M-orthonormal basis S, and then
//       A^{-1} = S diag(1 / (lambda + nu sum_k mu_k)) S^T.
//     The solve starts at A^{-1} b and CG only checks its residual, which
//     lands near 1e-15 ||b||: 0 iterations, one operator apply. CG iterates,
//     preconditioned by the same inverse, only if the start misses the
//     tolerance. No prediction is needed, so the projector stays empty.
//   * Otherwise Jacobi-preconditioned CG from the successive-solution
//     projector's prediction: a masked QuadMesh (channel_with_cavity) or a
//     side only partly Dirichlet breaks the tensor product.
// A solve whose Dirichlet values are all zero skips the lift's apply.

#include <memory>
#include <vector>

#include "la/cg.hpp"
#include "la/vector.hpp"
#include "sem/operators.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace sem {

/// The per-axis eigenbases behind the box preconditioner (helmholtz.cpp).
/// They depend only on the discretization and the Dirichlet sides, not on
/// (lambda, nu), so solvers that differ only in coefficients share them.
class BoxEigenbasis;

/// Instantiated for Discretization (2D) and Discretization3D (3D).
template <class Disc>
class HelmholtzSolver {
public:
  using Boundary = typename Disc::Boundary;
  /// Dirichlet value function g(x, y[, z]).
  using BcFn = typename Disc::template PointFn<>;

  /// `dirichlet`: boundaries whose nodes carry essential BCs. For a pure-
  /// Neumann problem pass an empty list; the operator is then singular
  /// (constant nullspace) and the solver pins the mean to zero.
  HelmholtzSolver(const Operators<Disc>& ops, double lambda, double nu,
                  std::vector<Boundary> dirichlet);

  /// The operator and Dirichlet boundaries of `like` with coefficients
  /// (lambda, nu), a fresh projector and default options. It shares like's
  /// eigenbases instead of computing them again.
  HelmholtzSolver(const HelmholtzSolver& like, double lambda, double nu);

  /// Solve with rhs f (as a nodal field; the solver forms M f) and the
  /// Dirichlet value function g evaluated at the constrained nodes'
  /// coordinates. `u` is output; its value on entry is not used.
  la::CgResult solve(const la::Vector& f, const BcFn& g, la::Vector& u);

  /// Variant with explicit per-node Dirichlet values aligned with
  /// dirichlet_nodes() (the NS solvers' per-step BC path). Throws
  /// std::invalid_argument unless f has num_nodes() entries and bc_values
  /// one per Dirichlet node.
  la::CgResult solve_with_values(const la::Vector& f, const la::Vector& bc_values,
                                 la::Vector& u);

  const std::vector<std::size_t>& dirichlet_nodes() const { return dnodes_; }
  bool pure_neumann() const { return dnodes_.empty(); }

  la::CgOptions& options() { return opt_; }

  /// Checkpoint the warm-start projector (the solver's only mutable state;
  /// empty on a box mesh). load_state throws resilience::CorruptError on a
  /// projector whose basis and image counts differ or whose vectors do not
  /// have num_nodes() entries.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  /// Jacobi diagonal when there are no eigenbases, and the scratch.
  void allocate();

  // analyze: no-checkpoint (constructor configuration, re-supplied by the driver)
  const Operators<Disc>* ops_;
  // analyze: no-checkpoint (constructor configuration: operator coefficients)
  double lambda_, nu_;
  // analyze: no-checkpoint (derived from the BC boundaries in the constructor)
  std::vector<std::size_t> dnodes_;
  // analyze: no-checkpoint (derived from dnodes_ in the constructor)
  std::vector<char> is_dirichlet_;
  // analyze: no-checkpoint (preconditioner tables, precomputed from ops_)
  std::shared_ptr<const BoxEigenbasis> basis_;  // null unless the mesh is a box
  // analyze: no-checkpoint (preconditioner tables, precomputed from ops_)
  la::Vector jacobi_;  // diag(lambda M + nu K), ones on Dirichlet rows; empty with basis_
  // analyze: no-checkpoint (per-solve scratch: no value carries from one solve to the next)
  la::Vector tmp_in_, tmp_out_, b_, work_;
  la::SolutionProjector projector_;  // Jacobi path only
  // analyze: no-checkpoint (solver tolerances are configuration)
  la::CgOptions opt_;
};

extern template class HelmholtzSolver<Discretization>;
extern template class HelmholtzSolver<Discretization3D>;

}  // namespace sem
