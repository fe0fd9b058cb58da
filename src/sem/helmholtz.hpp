#pragma once
// Helmholtz / Poisson boundary-value solver on a 2D or 3D discretization:
//   (lambda M + nu K) u = M f   with Dirichlet values on selected boundaries
// (mesh tags in 2D, box faces in 3D) and natural (zero-Neumann) conditions
// elsewhere. Solved by Jacobi-preconditioned CG on the free dofs, warm-
// started by the successive-solution projector (paper: NEKTAR's Helmholtz/
// Poisson solvers are CG with preconditioning and initial-state prediction).

#include <vector>

#include "la/cg.hpp"
#include "la/vector.hpp"
#include "sem/operators.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace sem {

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

  /// Solve with rhs f (as a nodal field; the solver forms M f) and the
  /// Dirichlet value function g evaluated at the constrained nodes'
  /// coordinates. `u` is output; the initial guess comes from the projector.
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

  /// Successive-solution projection depth (0 disables the warm start —
  /// the ablation knob for the paper's "initial state prediction").
  void set_projection_depth(std::size_t depth) {
    projector_ = la::SolutionProjector(depth);
    projection_enabled_ = depth > 0;
  }

  /// Checkpoint the warm-start projector (the solver's only mutable state).
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  // analyze: no-checkpoint (constructor configuration, re-supplied by the driver)
  const Operators<Disc>* ops_;
  // analyze: no-checkpoint (constructor configuration: operator coefficients)
  double lambda_, nu_;
  // analyze: no-checkpoint (derived from the BC boundaries in the constructor)
  std::vector<std::size_t> dnodes_;
  // analyze: no-checkpoint (derived from dnodes_ in the constructor)
  std::vector<char> is_dirichlet_;
  // analyze: no-checkpoint (preconditioner table, precomputed from ops_)
  la::Vector precond_diag_;
  la::SolutionProjector projector_;
  // analyze: no-checkpoint (set by set_projection_depth, driver configuration)
  bool projection_enabled_ = true;
  // analyze: no-checkpoint (solver tolerances are configuration)
  la::CgOptions opt_;
};

extern template class HelmholtzSolver<Discretization>;
extern template class HelmholtzSolver<Discretization3D>;

}  // namespace sem
