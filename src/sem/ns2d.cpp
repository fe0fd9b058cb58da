#include "sem/ns2d.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "resilience/blob_la.hpp"
#include "telemetry/registry.hpp"

namespace sem {

NavierStokes2D::NavierStokes2D(const Discretization& disc, Params params)
    : d_(&disc), params_(std::move(params)), ops_(disc) {
  const std::size_t n = disc.num_nodes();
  u_.resize(n, 0.0);
  v_.resize(n, 0.0);
  p_.resize(n, 0.0);
}

void NavierStokes2D::set_velocity_bc(int tag, BcFn u_fn, BcFn v_fn) {
  if (pressure_solver_) throw std::logic_error("NS2D: BCs fixed after first step");
  auto& b = bc_[tag];
  b.natural = false;
  b.u_fn = std::move(u_fn);
  b.v_fn = std::move(v_fn);
  b.u_vals.reset();
  b.v_vals.reset();
}

void NavierStokes2D::set_velocity_bc_values(int tag, std::vector<double> u_vals,
                                            std::vector<double> v_vals) {
  const std::size_t expect = d_->boundary_nodes(tag).size();
  if (u_vals.size() != expect || v_vals.size() != expect)
    throw std::invalid_argument("NS2D: bc value count != boundary node count");
  auto& b = bc_[tag];
  if (pressure_solver_ && b.natural)
    throw std::logic_error("NS2D: cannot convert natural BC to Dirichlet after first step");
  b.natural = false;
  b.u_vals = std::move(u_vals);
  b.v_vals = std::move(v_vals);
}

void NavierStokes2D::set_natural_bc(int tag) {
  if (pressure_solver_) throw std::logic_error("NS2D: BCs fixed after first step");
  bc_[tag].natural = true;
}

void NavierStokes2D::set_body_force(ForceFn fx, ForceFn fy) {
  fx_ = std::move(fx);
  fy_ = std::move(fy);
}

void NavierStokes2D::set_initial(const BcFn& u0, const BcFn& v0) {
  for (std::size_t g = 0; g < d_->num_nodes(); ++g) {
    u_[g] = u0(d_->node_x(g), d_->node_y(g), 0.0);
    v_[g] = v0(d_->node_x(g), d_->node_y(g), 0.0);
  }
}

void NavierStokes2D::build_solvers() {
  // Every boundary tag not explicitly marked natural carries velocity
  // Dirichlet conditions (unregistered tags default to no-slip walls).
  velocity_dirichlet_tags_.clear();
  for (int tag : d_->boundary_tags()) {
    auto it = bc_.find(tag);
    const bool natural = it != bc_.end() && it->second.natural;
    if (!natural) velocity_dirichlet_tags_.push_back(tag);
  }
  using Solver = HelmholtzSolver<Operators>;
  velocity_solver_ =
      std::make_unique<Solver>(ops_, 1.0 / params_.dt, params_.nu, velocity_dirichlet_tags_);
  if (params_.time_order >= 2)
    velocity_solver2_ =
        std::make_unique<Solver>(ops_, 1.5 / params_.dt, params_.nu, velocity_dirichlet_tags_);
  // Pressure: Dirichlet 0 on the configured tags (outlets / natural
  // boundaries), Neumann elsewhere.
  std::vector<int> ptags;
  for (int tag : params_.pressure_dirichlet_tags)
    if (!d_->boundary_nodes(tag).empty()) ptags.push_back(tag);
  pressure_solver_ = std::make_unique<Solver>(ops_, 0.0, 1.0, ptags);
}

void NavierStokes2D::fill_bc_values(double t, la::Vector& ubc, la::Vector& vbc) const {
  const auto& dn = velocity_solver_->dirichlet_nodes();
  ubc.resize(dn.size(), 0.0);
  vbc.resize(dn.size(), 0.0);
  ubc.fill(0.0);
  vbc.fill(0.0);
  // node -> position in dn (dn is sorted)
  auto pos_of = [&dn](std::size_t g) {
    const auto it = std::lower_bound(dn.begin(), dn.end(), g);
    return it != dn.end() && *it == g ? static_cast<long>(it - dn.begin()) : -1L;
  };
  for (int tag : velocity_dirichlet_tags_) {
    const auto& nodes = d_->boundary_nodes(tag);
    const auto it = bc_.find(tag);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const long p = pos_of(nodes[k]);
      if (p < 0) continue;
      double uv = 0.0, vv = 0.0;
      if (it != bc_.end()) {
        const auto& b = it->second;
        if (b.u_vals) {
          uv = (*b.u_vals)[k];
          vv = (*b.v_vals)[k];
        } else if (b.u_fn) {
          uv = b.u_fn(d_->node_x(nodes[k]), d_->node_y(nodes[k]), t);
          vv = b.v_fn(d_->node_x(nodes[k]), d_->node_y(nodes[k]), t);
        }
      }
      ubc[static_cast<std::size_t>(p)] = uv;
      vbc[static_cast<std::size_t>(p)] = vv;
    }
  }
}

std::size_t NavierStokes2D::step() {
  if (!pressure_solver_) build_solvers();
  telemetry::ScopedPhase phase("ns2d.step");
  // sub-phases cover the three split-scheme stages; emplace() ends the
  // previous one before starting the next
  std::optional<telemetry::ScopedPhase> sub;
  sub.emplace("ns2d.advect");
  const std::size_t n = d_->num_nodes();
  const double dt = params_.dt;
  const double tn1 = t_ + dt;
  std::size_t iters = 0;

  // 1) explicit advection + body force.
  // Order 2 (stiffly stable BDF2/EX2): the predictor accumulates
  //   us = (alpha0 u^n + alpha1 u^{n-1}) / gamma0
  //        + dt/gamma0 * (f - beta0 N^n - beta1 N^{n-1})
  // with gamma0 = 3/2, alpha0 = 2, alpha1 = -1/2, beta0 = 2, beta1 = -1;
  // the viscous solve then uses lambda = gamma0/dt. The first step (no
  // history) and time_order = 1 use IMEX Euler.
  const bool second = params_.time_order >= 2 && have_history_;
  const double gamma0 = second ? 1.5 : 1.0;

  la::Vector conv_u, conv_v;
  ops_.convection(u_, v_, conv_u, conv_v);
  la::Vector us(n), vs(n);
  for (std::size_t g = 0; g < n; ++g) {
    double fxv = 0.0, fyv = 0.0;
    if (fx_) fxv = fx_(d_->node_x(g), d_->node_y(g), tn1);
    if (fy_) fyv = fy_(d_->node_x(g), d_->node_y(g), tn1);
    if (second) {
      us[g] = (2.0 * u_[g] - 0.5 * u_prev_[g] +
               dt * (fxv - 2.0 * conv_u[g] + conv_u_prev_[g])) /
              gamma0;
      vs[g] = (2.0 * v_[g] - 0.5 * v_prev_[g] +
               dt * (fyv - 2.0 * conv_v[g] + conv_v_prev_[g])) /
              gamma0;
    } else {
      us[g] = u_[g] + dt * (fxv - conv_u[g]);
      vs[g] = v_[g] + dt * (fyv - conv_v[g]);
    }
  }
  if (params_.time_order >= 2) {
    u_prev_ = u_;
    v_prev_ = v_;
    conv_u_prev_ = std::move(conv_u);
    conv_v_prev_ = std::move(conv_v);
    have_history_ = true;
  }

  // Order 2 (pressure-increment, Van Kan): the predictor carries
  // -dt/gamma0 grad p^n; the Poisson solve below then yields the increment
  // phi = p^{n+1} - p^n, lifting the splitting error to O(dt^2).
  if (second) {
    la::Vector dpdx_n, dpdy_n;
    ops_.gradient(p_, dpdx_n, dpdy_n);
    for (std::size_t g = 0; g < n; ++g) {
      us[g] -= dt / gamma0 * dpdx_n[g];
      vs[g] -= dt / gamma0 * dpdy_n[g];
    }
  }

  // enforce the new-time Dirichlet velocity on the predictor before taking
  // its divergence (improves the projection's boundary mass balance)
  la::Vector ubc, vbc;
  fill_bc_values(tn1, ubc, vbc);
  {
    const auto& dn = velocity_solver_->dirichlet_nodes();
    for (std::size_t k = 0; k < dn.size(); ++k) {
      us[dn[k]] = ubc[k];
      vs[dn[k]] = vbc[k];
    }
  }

  sub.emplace("ns2d.pressure");
  la::Vector div(n);
  ops_.divergence(us, vs, div);
  la::Vector f(n);
  for (std::size_t g = 0; g < n; ++g) f[g] = -gamma0 * div[g] / dt;
  la::Vector phi(n, 0.0);
  auto rp = pressure_solver_->solve(f, [](double, double) { return 0.0; },
                                    second ? phi : p_);
  iters += rp.iterations;
  if (second)
    for (std::size_t g = 0; g < n; ++g) p_[g] += phi[g];

  // 3) projection: u_hat_hat/gamma0 = us - (dt/gamma0) grad (p or phi)
  la::Vector dpdx, dpdy;
  ops_.gradient(second ? phi : p_, dpdx, dpdy);
  for (std::size_t g = 0; g < n; ++g) {
    us[g] -= dt / gamma0 * dpdx[g];
    vs[g] -= dt / gamma0 * dpdy[g];
  }

  // 4) implicit viscosity: (gamma0 M/dt + nu K) u = gamma0 M us / dt
  sub.emplace("ns2d.viscous");
  la::Vector fu(n), fv(n);
  for (std::size_t g = 0; g < n; ++g) {
    fu[g] = gamma0 * us[g] / dt;
    fv[g] = gamma0 * vs[g] / dt;
  }
  HelmholtzSolver<Operators>& vsolve = second ? *velocity_solver2_ : *velocity_solver_;
  auto ru = vsolve.solve_with_values(fu, ubc, u_);
  auto rv = vsolve.solve_with_values(fv, vbc, v_);
  iters += ru.iterations + rv.iterations;

  t_ = tn1;
  return iters;
}

void NavierStokes2D::save_state(resilience::BlobWriter& w) const {
  w.pod(t_);
  w.pod(static_cast<std::uint8_t>(have_history_));
  resilience::put_vector(w, u_);
  resilience::put_vector(w, v_);
  resilience::put_vector(w, p_);
  resilience::put_vector(w, u_prev_);
  resilience::put_vector(w, v_prev_);
  resilience::put_vector(w, conv_u_prev_);
  resilience::put_vector(w, conv_v_prev_);
  save_warmstart(w);
}

void NavierStokes2D::load_state(resilience::BlobReader& r) {
  r.pod(t_);
  have_history_ = r.pod<std::uint8_t>() != 0;
  resilience::get_vector(r, u_);
  resilience::get_vector(r, v_);
  resilience::get_vector(r, p_);
  if (u_.size() != d_->num_nodes())
    throw resilience::LayoutError("NS2D: checkpoint field size " + std::to_string(u_.size()) +
                                  " != discretization size " + std::to_string(d_->num_nodes()));
  resilience::get_vector(r, u_prev_);
  resilience::get_vector(r, v_prev_);
  resilience::get_vector(r, conv_u_prev_);
  resilience::get_vector(r, conv_v_prev_);
  load_warmstart(r);
}

void NavierStokes2D::save_warmstart(resilience::BlobWriter& w) const {
  // solvers exist after the first step; before it they are recorded absent
  w.pod(static_cast<std::uint8_t>(pressure_solver_ != nullptr));
  if (pressure_solver_) {
    pressure_solver_->save_state(w);
    velocity_solver_->save_state(w);
    w.pod(static_cast<std::uint8_t>(velocity_solver2_ != nullptr));
    if (velocity_solver2_) velocity_solver2_->save_state(w);
  }
}

void NavierStokes2D::load_warmstart(resilience::BlobReader& r) {
  if (r.pod<std::uint8_t>() == 0) return;  // the saved run had never stepped
  if (!pressure_solver_) build_solvers();
  pressure_solver_->load_state(r);
  velocity_solver_->load_state(r);
  const bool had2 = r.pod<std::uint8_t>() != 0;
  if (had2 != (velocity_solver2_ != nullptr))
    throw resilience::LayoutError("NS2D: saved time_order != configured time_order");
  if (velocity_solver2_) velocity_solver2_->load_state(r);
}

double NavierStokes2D::max_speed() const {
  double m = 0.0;
  for (std::size_t g = 0; g < d_->num_nodes(); ++g)
    m = std::max(m, std::sqrt(u_[g] * u_[g] + v_[g] * v_[g]));
  return m;
}

}  // namespace sem
