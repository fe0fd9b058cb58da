#pragma once
// Unsteady incompressible Navier-Stokes solver in 2D, NEKTAR-style:
// spectral-element spatial discretization plus a semi-implicit splitting
// scheme (explicit advection, pressure projection, implicit viscosity) —
// the same solver family the paper uses for the macrovascular network
// (high temporal resolution from the splitting, spatial accuracy from SEM,
// CG solves accelerated by preconditioning and initial-state prediction).
//
// Boundary conditions per mesh tag:
//   * velocity Dirichlet (function of (x, y, t) or explicit per-node values
//     refreshed every step — the hook the patch/DPD coupling drives),
//   * natural outflow (no velocity constraint; pressure Dirichlet 0),
// plus a time-dependent body force (used for Womersley flow).

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "la/vector.hpp"
#include "sem/discretization.hpp"
#include "sem/helmholtz.hpp"
#include "sem/operators.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace sem {

class NavierStokes2D {
public:
  struct Params {
    double nu = 0.01;  ///< kinematic viscosity
    double dt = 1e-3;
    /// Temporal order of the stiffly-stable splitting scheme (Karniadakis-
    /// Israeli-Orszag): 1 = IMEX Euler, 2 = BDF2/EX2 (the paper's
    /// "semi-implicit high-order time stepping"). The first step of an
    /// order-2 run falls back to order 1.
    int time_order = 1;
    /// Tags whose boundary carries pressure Dirichlet p = 0 (typically the
    /// outlets). Empty => pure-Neumann pressure (mean pinned to zero).
    std::vector<int> pressure_dirichlet_tags = {mesh::kOutlet};
  };

  using BcFn = std::function<double(double x, double y, double t)>;
  using ForceFn = std::function<double(double x, double y, double t)>;

  NavierStokes2D(const Discretization& disc, Params params);

  /// Velocity Dirichlet BC on `tag` from analytic functions.
  void set_velocity_bc(int tag, BcFn u_fn, BcFn v_fn);
  /// Velocity Dirichlet BC on `tag` from explicit values matching
  /// disc().boundary_nodes(tag) order. Overwrites any function BC for the
  /// tag; call again each step to refresh (coupling hook).
  void set_velocity_bc_values(int tag, std::vector<double> u_vals, std::vector<double> v_vals);
  /// Mark `tag` as natural outflow (no velocity constraint there).
  void set_natural_bc(int tag);

  void set_body_force(ForceFn fx, ForceFn fy);

  void set_initial(const BcFn& u0, const BcFn& v0);

  /// Advance one time step; returns the total CG iterations spent (pressure
  /// + both velocity solves) for performance accounting.
  std::size_t step();

  double time() const { return t_; }
  double dt() const { return params_.dt; }
  const la::Vector& u() const { return u_; }
  const la::Vector& v() const { return v_; }
  const la::Vector& p() const { return p_; }
  const Discretization& disc() const { return *d_; }
  const Operators& ops() const { return ops_; }

  /// Max pointwise velocity magnitude (CFL monitoring).
  double max_speed() const;

  /// Checkpoint the full time-stepping state: fields, order-2 history, time,
  /// and every Helmholtz solver's warm-start projector — enough for a restart
  /// to continue bitwise identically. BCs/forcing are configuration and must
  /// be re-established by the driver before load_state.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

  /// Serialize only the Helmholtz solvers' successive-solution projector
  /// bases (no fields, no time). Loading seeds the CG predictors of a fresh
  /// run from a completed nearby one — the ensemble engine's "projector"
  /// warm-start mode. Requires identical discretization and time_order.
  /// save_state/load_state end with this same block.
  void save_warmstart(resilience::BlobWriter& w) const;
  void load_warmstart(resilience::BlobReader& r);

private:
  struct TagBc {
    bool natural = false;
    BcFn u_fn, v_fn;
    std::optional<std::vector<double>> u_vals, v_vals;
  };

  void build_solvers();
  void fill_bc_values(double t, la::Vector& ubc, la::Vector& vbc) const;

  // load_state dereferences d_ only to validate field sizes; the
  // discretization itself is configuration.
  // analyze: no-checkpoint (constructor configuration, re-supplied by the driver)
  const Discretization* d_;
  // analyze: no-checkpoint (constructor configuration)
  Params params_;
  // analyze: no-checkpoint (derived operator tables, rebuilt from d_)
  Operators ops_;

  // analyze: no-checkpoint (BC callbacks are configuration, re-established by the driver)
  std::map<int, TagBc> bc_;
  // analyze: no-checkpoint (forcing callbacks are configuration)
  ForceFn fx_, fy_;

  la::Vector u_, v_, p_;
  // order-2 history: previous velocity and convective term
  la::Vector u_prev_, v_prev_, conv_u_prev_, conv_v_prev_;
  bool have_history_ = false;
  double t_ = 0.0;

  std::unique_ptr<HelmholtzSolver<Operators>> pressure_solver_;
  std::unique_ptr<HelmholtzSolver<Operators>> velocity_solver_;   // order-1 lambda = 1/dt
  std::unique_ptr<HelmholtzSolver<Operators>> velocity_solver2_;  // order-2 lambda = 3/(2 dt)
  // analyze: no-checkpoint (derived from BC registration, rebuilt by build_solvers)
  std::vector<int> velocity_dirichlet_tags_;
};

}  // namespace sem
