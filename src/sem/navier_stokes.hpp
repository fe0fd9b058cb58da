#pragma once
// Unsteady incompressible Navier-Stokes on spectral elements, NEKTAR-style:
// a 2D quadrilateral (Discretization) or 3D hexahedral (Discretization3D)
// SEM discretization plus a semi-implicit stiffly-stable splitting scheme
// (explicit advection EX1/EX2, pressure projection — non-incremental at
// order 1, pressure-increment at order 2 — and implicit viscosity). This is
// the solver family the paper runs on every continuum patch: high temporal
// resolution from the splitting, spatial accuracy from SEM, CG solves
// accelerated by preconditioning and initial-state prediction.
//
// Boundary conditions per boundary (mesh tag in 2D, box face in 3D):
//   * velocity Dirichlet, from functions of (x, y[, z], t) or from explicit
//     per-node values refreshed every step (the hook the patch and 1D
//     couplings drive); boundaries never registered are no-slip walls,
//   * natural outflow (no velocity constraint; pressure Dirichlet 0 on the
//     boundaries listed in Params::pressure_dirichlet_faces),
// plus a time-dependent body force (used for Womersley flow). At a node
// shared by two Dirichlet boundaries the one with the larger id wins.

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "la/vector.hpp"
#include "sem/discretization.hpp"
#include "sem/helmholtz.hpp"
#include "sem/hex3d.hpp"
#include "sem/operators.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace sem {

/// What a stepper configures per dimension that is not a property of the
/// mesh: the default pressure-Dirichlet boundary and the telemetry
/// phase-name prefix.
template <class Disc>
struct NavierStokesTraits;
template <>
struct NavierStokesTraits<Discretization> {
  static constexpr int kPressureDirichlet = mesh::kOutlet;
  static constexpr const char* kPhasePrefix = "ns2d";
};
template <>
struct NavierStokesTraits<Discretization3D> {
  static constexpr HexFace kPressureDirichlet = HexFace::X1;
  static constexpr const char* kPhasePrefix = "ns3d";
};

/// Instantiated for Discretization (2D) and Discretization3D (3D).
template <class D>
class NavierStokes {
public:
  using Disc = D;
  using Traits = NavierStokesTraits<Disc>;
  static constexpr std::size_t kDim = Disc::kDim;
  using Boundary = typename Disc::Boundary;
  /// Velocity BC, forcing and initial-condition function f(x, y[, z], t).
  using BcFn = typename Disc::template PointFn<double>;
  /// One entry per velocity component.
  template <class T>
  using Components = std::array<T, kDim>;

  struct Params {
    double nu = 0.01;  ///< kinematic viscosity
    double dt = 1e-3;
    /// Temporal order of the stiffly-stable splitting scheme (Karniadakis-
    /// Israeli-Orszag): 1 = IMEX Euler, 2 = BDF2/EX2 with pressure increment
    /// (the paper's "semi-implicit high-order time stepping"). The first
    /// step of an order-2 run falls back to order 1.
    int time_order = 1;
    /// Boundaries carrying pressure Dirichlet p = 0 (typically the outlets);
    /// ones without nodes are ignored. Empty => pure-Neumann pressure (mean
    /// pinned to zero).
    std::vector<Boundary> pressure_dirichlet_faces = {Traits::kPressureDirichlet};
  };

  NavierStokes(const Disc& disc, Params params);

  /// Velocity Dirichlet BC on `b` from one function per component.
  template <class... F>
    requires(sizeof...(F) == kDim)
  void set_velocity_bc(Boundary b, F... fn) {
    set_velocity_bc(b, Components<BcFn>{std::move(fn)...});
  }
  void set_velocity_bc(Boundary b, Components<BcFn> fn);
  /// Velocity Dirichlet BC on `b` from explicit values, one vector per
  /// component matching disc().boundary_nodes(b) order. Overrides any
  /// function BC for `b`; call again each step to refresh (coupling hook).
  template <class... V>
    requires(sizeof...(V) == kDim)
  void set_velocity_bc_values(Boundary b, V&&... vals) {
    set_velocity_bc_values(b, Components<std::vector<double>>{std::forward<V>(vals)...});
  }
  void set_velocity_bc_values(Boundary b, Components<std::vector<double>> vals);
  /// Mark `b` as natural outflow (no velocity constraint there).
  void set_natural_bc(Boundary b);

  /// Body force, one function per component (empty ones contribute zero).
  template <class... F>
    requires(sizeof...(F) == kDim)
  void set_body_force(F... fn) {
    set_body_force(Components<BcFn>{std::move(fn)...});
  }
  void set_body_force(Components<BcFn> fn);

  /// Initial velocity, one function per component, evaluated at t = 0.
  template <class... F>
    requires(sizeof...(F) == kDim)
  void set_initial(F... fn) {
    set_initial(Components<BcFn>{std::move(fn)...});
  }
  void set_initial(const Components<BcFn>& fn);

  /// Advance one time step; returns the total CG iterations spent (pressure
  /// plus every velocity solve) for performance accounting. On a box mesh
  /// every solve starts at its exact answer, so this is 0 unless a start
  /// misses the tolerance.
  std::size_t step();

  double time() const { return t_; }
  double dt() const { return params_.dt; }
  const Components<la::Vector>& velocity() const { return vel_; }
  const la::Vector& u() const { return vel_[0]; }
  const la::Vector& v() const { return vel_[1]; }
  const la::Vector& w() const
    requires(kDim == 3)
  {
    return vel_[2];
  }
  const la::Vector& p() const { return p_; }
  const Disc& disc() const { return *d_; }

  /// Max pointwise velocity magnitude (CFL monitoring).
  double max_speed() const;

  /// Checkpoint the full time-stepping state: fields, p, order-2 history,
  /// time, and every Helmholtz solver's warm-start projector (empty on box
  /// meshes) — enough for a restart to continue bitwise identically.
  /// BCs/forcing are configuration and must be re-established by the
  /// caller before load_state.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  struct BoundaryBc {
    bool natural = false;
    Components<BcFn> fn;
    std::optional<Components<std::vector<double>>> values;
  };
  /// Which boundary supplies a Dirichlet node's value, and the node's index
  /// in that boundary's node list.
  struct Owner {
    std::size_t boundary = 0;  ///< index into dirichlet_
    std::size_t index = 0;
  };

  void build_solvers();
  /// bc_values_ at time t, one entry per velocity_solver_->dirichlet_nodes().
  void fill_bc_values(double t);
  /// The tail of save_state/load_state: each Helmholtz solver's state, or
  /// a marker that the solvers were never built.
  void save_solvers(resilience::BlobWriter& w) const;
  void load_solvers(resilience::BlobReader& r);

  // load_state dereferences d_ only to validate field sizes; the
  // discretization itself is configuration.
  // analyze: no-checkpoint (constructor configuration, re-supplied by the caller)
  const Disc* d_;
  // analyze: no-checkpoint (constructor configuration)
  Params params_;
  // analyze: no-checkpoint (derived operator tables, rebuilt from d_)
  Operators<Disc> ops_;

  // analyze: no-checkpoint (BC callbacks are configuration, re-established by the caller)
  std::map<Boundary, BoundaryBc> bc_;
  // analyze: no-checkpoint (forcing callbacks are configuration)
  Components<BcFn> force_;

  Components<la::Vector> vel_;
  la::Vector p_;
  // order-2 history: previous velocity and convective term
  Components<la::Vector> vel_prev_, conv_prev_;
  bool have_history_ = false;
  double t_ = 0.0;

  std::unique_ptr<HelmholtzSolver<Disc>> pressure_solver_;
  std::unique_ptr<HelmholtzSolver<Disc>> velocity_solver_;   // order-1 lambda = 1/dt
  std::unique_ptr<HelmholtzSolver<Disc>> velocity_solver2_;  // order-2 lambda = 3/(2 dt)
  // analyze: no-checkpoint (derived from BC registration, rebuilt by build_solvers)
  std::vector<Boundary> dirichlet_;  ///< velocity-Dirichlet boundaries, ascending
  // analyze: no-checkpoint (derived from BC registration, rebuilt by build_solvers)
  std::vector<Owner> owner_;  ///< per velocity_solver_->dirichlet_nodes() entry

  // Per-step scratch, hoisted out of step(): every value is written in the
  // step before it is read, so none carries from one step to the next.
  // analyze: no-checkpoint (per-step scratch: the convective term, then the pressure gradients)
  Components<la::Vector> work_;
  // analyze: no-checkpoint (per-step scratch: the predictor velocity)
  Components<la::Vector> us_;
  // analyze: no-checkpoint (per-step scratch: Dirichlet velocity values and their sources)
  Components<la::Vector> bc_values_;
  // analyze: no-checkpoint (per-step scratch, see bc_values_)
  std::vector<const BoundaryBc*> bc_src_;
  // analyze: no-checkpoint (per-step scratch: the Poisson rhs and the pressure increment)
  la::Vector rhs_, phi_;
  // analyze: no-checkpoint (constant zero pressure Dirichlet values, sized by build_solvers)
  la::Vector p_bc_;
};

extern template class NavierStokes<Discretization>;
extern template class NavierStokes<Discretization3D>;

/// The 2D and 3D spellings bench/e2e/coupled.cpp uses.
using NavierStokes2D = NavierStokes<Discretization>;
using NavierStokes3D = NavierStokes<Discretization3D>;

}  // namespace sem
