#include "sem/ns3d.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "resilience/blob_la.hpp"
#include "telemetry/registry.hpp"

namespace sem {

NavierStokes3D::NavierStokes3D(const Discretization3D& disc, Params params)
    : d_(&disc), params_(std::move(params)), ops_(disc) {
  const std::size_t n = disc.num_nodes();
  u_.resize(n, 0.0);
  v_.resize(n, 0.0);
  w_.resize(n, 0.0);
  p_.resize(n, 0.0);
}

void NavierStokes3D::set_velocity_bc(HexFace f, BcFn u, BcFn v, BcFn w) {
  if (pressure_solver_) throw std::logic_error("NS3D: BCs fixed after first step");
  auto& b = bc_[static_cast<std::size_t>(f)];
  b.natural = false;
  b.u = std::move(u);
  b.v = std::move(v);
  b.w = std::move(w);
}

void NavierStokes3D::set_natural_bc(HexFace f) {
  if (pressure_solver_) throw std::logic_error("NS3D: BCs fixed after first step");
  bc_[static_cast<std::size_t>(f)].natural = true;
}

void NavierStokes3D::set_body_force(BcFn fx, BcFn fy, BcFn fz) {
  fx_ = std::move(fx);
  fy_ = std::move(fy);
  fz_ = std::move(fz);
}

void NavierStokes3D::set_initial(const BcFn& u0, const BcFn& v0, const BcFn& w0) {
  for (std::size_t g = 0; g < d_->num_nodes(); ++g) {
    const double x = d_->node_x(g), y = d_->node_y(g), z = d_->node_z(g);
    u_[g] = u0(x, y, z, 0.0);
    v_[g] = v0(x, y, z, 0.0);
    w_[g] = w0(x, y, z, 0.0);
  }
}

void NavierStokes3D::build_solvers() {
  std::vector<HexFace> vel_faces;
  node_face_.assign(d_->num_nodes(), static_cast<char>(-1));
  for (int f = 0; f < 6; ++f) {
    if (bc_[static_cast<std::size_t>(f)].natural) continue;
    vel_faces.push_back(static_cast<HexFace>(f));
    for (std::size_t g : d_->boundary_nodes(static_cast<HexFace>(f)))
      if (node_face_[g] == static_cast<char>(-1)) node_face_[g] = static_cast<char>(f);
  }
  using Solver = HelmholtzSolver<Operators3D>;
  velocity_solver_ = std::make_unique<Solver>(ops_, 1.0 / params_.dt, params_.nu, vel_faces);
  if (params_.time_order >= 2)
    velocity_solver2_ = std::make_unique<Solver>(ops_, 1.5 / params_.dt, params_.nu, vel_faces);
  pressure_solver_ =
      std::make_unique<Solver>(ops_, 0.0, 1.0, params_.pressure_dirichlet_faces);
  dnodes_ = velocity_solver_->dirichlet_nodes();
}

void NavierStokes3D::fill_bc_values(double t, la::Vector& ubc, la::Vector& vbc,
                                    la::Vector& wbc) const {
  ubc.resize(dnodes_.size(), 0.0);
  vbc.resize(dnodes_.size(), 0.0);
  wbc.resize(dnodes_.size(), 0.0);
  for (std::size_t k = 0; k < dnodes_.size(); ++k) {
    const std::size_t g = dnodes_[k];
    const int f = node_face_[g];
    double uu = 0.0, vv = 0.0, ww = 0.0;
    if (f >= 0) {
      const auto& b = bc_[static_cast<std::size_t>(f)];
      if (b.u) {
        const double x = d_->node_x(g), y = d_->node_y(g), z = d_->node_z(g);
        uu = b.u(x, y, z, t);
        vv = b.v(x, y, z, t);
        ww = b.w(x, y, z, t);
      }
    }
    ubc[k] = uu;
    vbc[k] = vv;
    wbc[k] = ww;
  }
}

std::size_t NavierStokes3D::step() {
  if (!pressure_solver_) build_solvers();
  telemetry::ScopedPhase phase("ns3d.step");
  std::optional<telemetry::ScopedPhase> sub;
  sub.emplace("ns3d.advect");
  const std::size_t n = d_->num_nodes();
  const double dt = params_.dt;
  const double tn1 = t_ + dt;
  std::size_t iters = 0;

  const bool second = params_.time_order >= 2 && have_history_;
  const double gamma0 = second ? 1.5 : 1.0;

  la::Vector cu, cv, cw;
  ops_.convection(u_, v_, w_, cu, cv, cw);
  la::Vector us(n), vs(n), ws(n);
  for (std::size_t g = 0; g < n; ++g) {
    double fxv = 0.0, fyv = 0.0, fzv = 0.0;
    if (fx_) {
      const double x = d_->node_x(g), y = d_->node_y(g), z = d_->node_z(g);
      fxv = fx_(x, y, z, tn1);
      fyv = fy_(x, y, z, tn1);
      fzv = fz_(x, y, z, tn1);
    }
    if (second) {
      us[g] = (2.0 * u_[g] - 0.5 * u_prev_[g] + dt * (fxv - 2.0 * cu[g] + cu_prev_[g])) / gamma0;
      vs[g] = (2.0 * v_[g] - 0.5 * v_prev_[g] + dt * (fyv - 2.0 * cv[g] + cv_prev_[g])) / gamma0;
      ws[g] = (2.0 * w_[g] - 0.5 * w_prev_[g] + dt * (fzv - 2.0 * cw[g] + cw_prev_[g])) / gamma0;
    } else {
      us[g] = u_[g] + dt * (fxv - cu[g]);
      vs[g] = v_[g] + dt * (fyv - cv[g]);
      ws[g] = w_[g] + dt * (fzv - cw[g]);
    }
  }
  if (params_.time_order >= 2) {
    u_prev_ = u_;
    v_prev_ = v_;
    w_prev_ = w_;
    cu_prev_ = std::move(cu);
    cv_prev_ = std::move(cv);
    cw_prev_ = std::move(cw);
    have_history_ = true;
  }

  if (second) {
    la::Vector px, py, pz;
    ops_.gradient(p_, px, py, pz);
    for (std::size_t g = 0; g < n; ++g) {
      us[g] -= dt / gamma0 * px[g];
      vs[g] -= dt / gamma0 * py[g];
      ws[g] -= dt / gamma0 * pz[g];
    }
  }

  la::Vector ubc, vbc, wbc;
  fill_bc_values(tn1, ubc, vbc, wbc);
  for (std::size_t k = 0; k < dnodes_.size(); ++k) {
    us[dnodes_[k]] = ubc[k];
    vs[dnodes_[k]] = vbc[k];
    ws[dnodes_[k]] = wbc[k];
  }

  sub.emplace("ns3d.pressure");
  la::Vector div(n);
  ops_.divergence(us, vs, ws, div);
  la::Vector f(n);
  for (std::size_t g = 0; g < n; ++g) f[g] = -gamma0 * div[g] / dt;
  la::Vector phi(n, 0.0);
  auto rp = pressure_solver_->solve(f, [](double, double, double) { return 0.0; },
                                    second ? phi : p_);
  iters += rp.iterations;
  if (second)
    for (std::size_t g = 0; g < n; ++g) p_[g] += phi[g];

  la::Vector px, py, pz;
  ops_.gradient(second ? phi : p_, px, py, pz);
  for (std::size_t g = 0; g < n; ++g) {
    us[g] -= dt / gamma0 * px[g];
    vs[g] -= dt / gamma0 * py[g];
    ws[g] -= dt / gamma0 * pz[g];
  }

  sub.emplace("ns3d.viscous");
  la::Vector fu(n), fv(n), fw(n);
  for (std::size_t g = 0; g < n; ++g) {
    fu[g] = gamma0 * us[g] / dt;
    fv[g] = gamma0 * vs[g] / dt;
    fw[g] = gamma0 * ws[g] / dt;
  }
  HelmholtzSolver<Operators3D>& vsolve = second ? *velocity_solver2_ : *velocity_solver_;
  iters += vsolve.solve_with_values(fu, ubc, u_).iterations;
  iters += vsolve.solve_with_values(fv, vbc, v_).iterations;
  iters += vsolve.solve_with_values(fw, wbc, w_).iterations;

  t_ = tn1;
  return iters;
}

void NavierStokes3D::save_state(resilience::BlobWriter& w) const {
  w.pod(t_);
  w.pod(static_cast<std::uint8_t>(have_history_));
  resilience::put_vector(w, u_);
  resilience::put_vector(w, v_);
  resilience::put_vector(w, w_);
  resilience::put_vector(w, p_);
  resilience::put_vector(w, u_prev_);
  resilience::put_vector(w, v_prev_);
  resilience::put_vector(w, w_prev_);
  resilience::put_vector(w, cu_prev_);
  resilience::put_vector(w, cv_prev_);
  resilience::put_vector(w, cw_prev_);
  save_warmstart(w);
}

void NavierStokes3D::load_state(resilience::BlobReader& r) {
  r.pod(t_);
  have_history_ = r.pod<std::uint8_t>() != 0;
  resilience::get_vector(r, u_);
  resilience::get_vector(r, v_);
  resilience::get_vector(r, w_);
  resilience::get_vector(r, p_);
  if (u_.size() != d_->num_nodes())
    throw resilience::LayoutError("NS3D: checkpoint field size " + std::to_string(u_.size()) +
                                  " != discretization size " + std::to_string(d_->num_nodes()));
  resilience::get_vector(r, u_prev_);
  resilience::get_vector(r, v_prev_);
  resilience::get_vector(r, w_prev_);
  resilience::get_vector(r, cu_prev_);
  resilience::get_vector(r, cv_prev_);
  resilience::get_vector(r, cw_prev_);
  load_warmstart(r);
}

void NavierStokes3D::save_warmstart(resilience::BlobWriter& w) const {
  w.pod(static_cast<std::uint8_t>(pressure_solver_ != nullptr));
  if (pressure_solver_) {
    pressure_solver_->save_state(w);
    velocity_solver_->save_state(w);
    w.pod(static_cast<std::uint8_t>(velocity_solver2_ != nullptr));
    if (velocity_solver2_) velocity_solver2_->save_state(w);
  }
}

void NavierStokes3D::load_warmstart(resilience::BlobReader& r) {
  if (r.pod<std::uint8_t>() == 0) return;  // the saved run had never stepped
  if (!pressure_solver_) build_solvers();
  pressure_solver_->load_state(r);
  velocity_solver_->load_state(r);
  const bool had2 = r.pod<std::uint8_t>() != 0;
  if (had2 != (velocity_solver2_ != nullptr))
    throw resilience::LayoutError("NS3D: saved time_order != configured time_order");
  if (velocity_solver2_) velocity_solver2_->load_state(r);
}

}  // namespace sem
