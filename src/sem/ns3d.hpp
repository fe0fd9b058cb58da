#pragma once
// Unsteady incompressible Navier-Stokes in 3D on hexahedral spectral
// elements — the dimensionality of the paper's production solver. Same
// semi-implicit stiffly-stable splitting as the (exhaustively validated)
// 2D solver in ns2d.hpp: explicit advection (EX1/EX2), pressure projection
// (non-incremental at order 1, pressure-increment at order 2), implicit
// viscosity. Boundary conditions per box face: velocity Dirichlet from
// functions of (x, y, z, t), or natural outflow.

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sem/helmholtz.hpp"
#include "sem/hex3d.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace sem {

class NavierStokes3D {
public:
  struct Params {
    double nu = 0.01;
    double dt = 1e-3;
    int time_order = 1;  ///< 1 = IMEX Euler, 2 = BDF2/EX2 + pressure increment
    /// Faces carrying pressure Dirichlet p = 0; empty = pure Neumann.
    std::vector<HexFace> pressure_dirichlet_faces = {HexFace::X1};
  };

  using BcFn = std::function<double(double x, double y, double z, double t)>;

  NavierStokes3D(const Discretization3D& disc, Params params);

  /// Velocity Dirichlet on a face (defaults: all faces no-slip walls).
  void set_velocity_bc(HexFace f, BcFn u, BcFn v, BcFn w);
  /// Natural outflow on a face (no velocity constraint there).
  void set_natural_bc(HexFace f);

  void set_body_force(BcFn fx, BcFn fy, BcFn fz);
  void set_initial(const BcFn& u0, const BcFn& v0, const BcFn& w0);

  /// Advance one step; returns total CG iterations.
  std::size_t step();

  /// Checkpoint the full time-stepping state (fields, order-2 history, time,
  /// solver warm-start projectors). BCs/forcing are configuration and must be
  /// re-established by the driver before load_state.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

  /// Serialize only the Helmholtz solvers' successive-solution projector
  /// bases (no fields, no time) — the ensemble engine's "projector"
  /// warm-start mode. Requires identical discretization and time_order.
  /// save_state/load_state end with this same block.
  void save_warmstart(resilience::BlobWriter& w) const;
  void load_warmstart(resilience::BlobReader& r);

  double time() const { return t_; }
  const la::Vector& u() const { return u_; }
  const la::Vector& v() const { return v_; }
  const la::Vector& w() const { return w_; }
  const la::Vector& p() const { return p_; }
  const Discretization3D& disc() const { return *d_; }
  const Operators3D& ops() const { return ops_; }

private:
  struct FaceBc {
    bool natural = false;
    BcFn u, v, w;
  };

  void build_solvers();
  void fill_bc_values(double t, la::Vector& ubc, la::Vector& vbc, la::Vector& wbc) const;

  // load_state dereferences d_ only to validate field sizes; the
  // discretization itself is configuration.
  // analyze: no-checkpoint (constructor configuration, re-supplied by the driver)
  const Discretization3D* d_;
  // analyze: no-checkpoint (constructor configuration)
  Params params_;
  // analyze: no-checkpoint (derived operator tables, rebuilt from d_)
  Operators3D ops_;

  // analyze: no-checkpoint (BC callbacks are configuration, re-established by the driver)
  std::array<FaceBc, 6> bc_{};
  // analyze: no-checkpoint (forcing callbacks are configuration)
  BcFn fx_, fy_, fz_;

  la::Vector u_, v_, w_, p_;
  la::Vector u_prev_, v_prev_, w_prev_, cu_prev_, cv_prev_, cw_prev_;
  bool have_history_ = false;
  double t_ = 0.0;

  std::unique_ptr<HelmholtzSolver<Operators3D>> pressure_solver_;
  std::unique_ptr<HelmholtzSolver<Operators3D>> velocity_solver_;
  std::unique_ptr<HelmholtzSolver<Operators3D>> velocity_solver2_;
  // analyze: no-checkpoint (derived from BC registration, rebuilt by build_solvers)
  std::vector<std::size_t> dnodes_;  ///< union of Dirichlet-face nodes
  // analyze: no-checkpoint (derived from BC registration, rebuilt by build_solvers)
  std::vector<char> node_face_;      ///< node -> owning face index (255 = none)
};

}  // namespace sem
