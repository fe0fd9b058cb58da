#include "sem/navier_stokes.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "resilience/blob_la.hpp"
#include "telemetry/registry.hpp"

namespace sem {

namespace {

enum Stage : std::size_t { kStep, kAdvect, kPressure, kViscous };

/// "<prefix>.step", "<prefix>.advect", ... of one dimension, built once.
template <class D>
const char* phase_name(Stage s) {
  static const auto names = [] {
    const std::string p = NavierStokesTraits<D>::kPhasePrefix;
    return std::array<std::string, 4>{p + ".step", p + ".advect", p + ".pressure",
                                      p + ".viscous"};
  }();
  return names[s].c_str();
}

}  // namespace

template <class D>
NavierStokes<D>::NavierStokes(const Disc& disc, Params params)
    : d_(&disc), params_(std::move(params)), ops_(disc) {
  const std::size_t n = disc.num_nodes();
  for (auto& c : vel_) c.resize(n, 0.0);
  p_.resize(n, 0.0);
}

template <class D>
void NavierStokes<D>::set_velocity_bc(Boundary b, Components<BcFn> fn) {
  if (pressure_solver_) throw std::logic_error("NavierStokes: BCs fixed after first step");
  auto& e = bc_[b];
  e.natural = false;
  e.fn = std::move(fn);
  e.values.reset();
}

template <class D>
void NavierStokes<D>::set_velocity_bc_values(Boundary b,
                                             Components<std::vector<double>> vals) {
  const std::size_t expect = d_->boundary_nodes(b).size();
  for (const auto& c : vals)
    if (c.size() != expect)
      throw std::invalid_argument("NavierStokes: bc value count != boundary node count");
  auto& e = bc_[b];
  if (pressure_solver_ && e.natural)
    throw std::logic_error(
        "NavierStokes: cannot convert natural BC to Dirichlet after first step");
  e.natural = false;
  e.values = std::move(vals);
}

template <class D>
void NavierStokes<D>::set_natural_bc(Boundary b) {
  if (pressure_solver_) throw std::logic_error("NavierStokes: BCs fixed after first step");
  bc_[b].natural = true;
}

template <class D>
void NavierStokes<D>::set_body_force(Components<BcFn> fn) {
  force_ = std::move(fn);
}

template <class D>
void NavierStokes<D>::set_initial(const Components<BcFn>& fn) {
  for (std::size_t g = 0; g < d_->num_nodes(); ++g) {
    const auto x = d_->node(g);
    for (std::size_t c = 0; c < kDim; ++c) vel_[c][g] = eval_at(fn[c], x, 0.0);
  }
}

template <class D>
void NavierStokes<D>::build_solvers() {
  // Every boundary not explicitly marked natural carries velocity Dirichlet
  // conditions (unregistered boundaries default to no-slip walls).
  dirichlet_.clear();
  for (Boundary b : d_->boundary_tags()) {
    const auto it = bc_.find(b);
    if (it == bc_.end() || !it->second.natural) dirichlet_.push_back(b);
  }
  using Solver = HelmholtzSolver<Disc>;
  velocity_solver_ = std::make_unique<Solver>(ops_, 1.0 / params_.dt, params_.nu, dirichlet_);
  // order 2: the same boundaries, so it shares the first solver's 3D eigenbases
  if (params_.time_order >= 2)
    velocity_solver2_ =
        std::make_unique<Solver>(*velocity_solver_, 1.5 / params_.dt, params_.nu);
  // Pressure: Dirichlet 0 on the configured boundaries (outlets / natural
  // boundaries), Neumann elsewhere.
  std::vector<Boundary> pressure;
  for (Boundary b : params_.pressure_dirichlet_faces)
    if (!d_->boundary_nodes(b).empty()) pressure.push_back(b);
  pressure_solver_ = std::make_unique<Solver>(ops_, 0.0, 1.0, pressure);

  // A node shared by two Dirichlet boundaries takes the value of the one
  // with the larger id: dirichlet_ ascends, so the last write wins.
  const auto& dn = velocity_solver_->dirichlet_nodes();
  owner_.assign(dn.size(), Owner{});
  for (std::size_t j = 0; j < dirichlet_.size(); ++j) {
    const auto& nodes = d_->boundary_nodes(dirichlet_[j]);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto k = std::lower_bound(dn.begin(), dn.end(), nodes[i]) - dn.begin();
      owner_[static_cast<std::size_t>(k)] = {j, i};
    }
  }
}

template <class D>
void NavierStokes<D>::fill_bc_values(double t, Components<la::Vector>& bc) const {
  std::vector<const BoundaryBc*> src(dirichlet_.size(), nullptr);
  for (std::size_t j = 0; j < dirichlet_.size(); ++j) {
    const auto it = bc_.find(dirichlet_[j]);
    if (it != bc_.end()) src[j] = &it->second;
  }
  const auto& dn = velocity_solver_->dirichlet_nodes();
  for (auto& c : bc) c.resize(dn.size(), 0.0);
  for (std::size_t k = 0; k < dn.size(); ++k) {
    const BoundaryBc* b = src[owner_[k].boundary];
    if (!b) continue;  // unregistered wall: no-slip
    if (b->values) {
      for (std::size_t c = 0; c < kDim; ++c) bc[c][k] = (*b->values)[c][owner_[k].index];
    } else if (b->fn[0]) {
      const auto x = d_->node(dn[k]);
      for (std::size_t c = 0; c < kDim; ++c) bc[c][k] = eval_at(b->fn[c], x, t);
    }
  }
}

template <class D>
std::size_t NavierStokes<D>::step() {
  if (!pressure_solver_) build_solvers();
  telemetry::ScopedPhase phase(phase_name<D>(kStep));
  // sub-phases cover the three split-scheme stages; emplace() ends the
  // previous one before starting the next
  std::optional<telemetry::ScopedPhase> sub;
  sub.emplace(phase_name<D>(kAdvect));
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

  Components<la::Vector> conv, us;
  ops_.convection(vel_, conv);
  for (auto& c : us) c.resize(n);
  const bool forced = std::any_of(force_.begin(), force_.end(), [](const BcFn& f) {
    return static_cast<bool>(f);
  });
  for (std::size_t g = 0; g < n; ++g) {
    std::array<double, kDim> f{};
    if (forced) {
      const auto x = d_->node(g);
      for (std::size_t c = 0; c < kDim; ++c)
        if (force_[c]) f[c] = eval_at(force_[c], x, tn1);
    }
    for (std::size_t c = 0; c < kDim; ++c) {
      if (second)
        us[c][g] = (2.0 * vel_[c][g] - 0.5 * vel_prev_[c][g] +
                    dt * (f[c] - 2.0 * conv[c][g] + conv_prev_[c][g])) /
                   gamma0;
      else
        us[c][g] = vel_[c][g] + dt * (f[c] - conv[c][g]);
    }
  }
  if (params_.time_order >= 2) {
    vel_prev_ = vel_;
    conv_prev_ = std::move(conv);
    have_history_ = true;
  }

  // Order 2 (pressure-increment, Van Kan): the predictor carries
  // -dt/gamma0 grad p^n; the Poisson solve below then yields the increment
  // phi = p^{n+1} - p^n, lifting the splitting error to O(dt^2).
  Components<la::Vector> grad;
  if (second) {
    ops_.gradient(p_, grad);
    for (std::size_t g = 0; g < n; ++g)
      for (std::size_t c = 0; c < kDim; ++c) us[c][g] -= dt / gamma0 * grad[c][g];
  }

  // enforce the new-time Dirichlet velocity on the predictor before taking
  // its divergence (improves the projection's boundary mass balance)
  Components<la::Vector> bc;
  fill_bc_values(tn1, bc);
  const auto& dn = velocity_solver_->dirichlet_nodes();
  for (std::size_t k = 0; k < dn.size(); ++k)
    for (std::size_t c = 0; c < kDim; ++c) us[c][dn[k]] = bc[c][k];

  // 2) pressure Poisson solve with the rhs -gamma0 div(us) / dt
  sub.emplace(phase_name<D>(kPressure));
  la::Vector rhs(n);
  ops_.divergence(us, rhs);
  for (std::size_t g = 0; g < n; ++g) rhs[g] = -gamma0 * rhs[g] / dt;
  la::Vector phi(n, 0.0);
  const la::Vector p_bc(pressure_solver_->dirichlet_nodes().size(), 0.0);
  iters += pressure_solver_->solve_with_values(rhs, p_bc, second ? phi : p_).iterations;
  if (second)
    for (std::size_t g = 0; g < n; ++g) p_[g] += phi[g];

  // 3) projection: u_hat_hat/gamma0 = us - (dt/gamma0) grad (p or phi)
  ops_.gradient(second ? phi : p_, grad);
  for (std::size_t g = 0; g < n; ++g)
    for (std::size_t c = 0; c < kDim; ++c) us[c][g] -= dt / gamma0 * grad[c][g];

  // 4) implicit viscosity: (gamma0 M/dt + nu K) u = gamma0 M us / dt
  sub.emplace(phase_name<D>(kViscous));
  for (std::size_t g = 0; g < n; ++g)
    for (std::size_t c = 0; c < kDim; ++c) us[c][g] = gamma0 * us[c][g] / dt;
  HelmholtzSolver<Disc>& vsolve = second ? *velocity_solver2_ : *velocity_solver_;
  for (std::size_t c = 0; c < kDim; ++c)
    iters += vsolve.solve_with_values(us[c], bc[c], vel_[c]).iterations;

  t_ = tn1;
  return iters;
}

template <class D>
void NavierStokes<D>::save_state(resilience::BlobWriter& w) const {
  w.pod(t_);
  w.pod(static_cast<std::uint8_t>(have_history_));
  for (const auto& c : vel_) resilience::put_vector(w, c);
  resilience::put_vector(w, p_);
  for (const auto& c : vel_prev_) resilience::put_vector(w, c);
  for (const auto& c : conv_prev_) resilience::put_vector(w, c);
  save_solvers(w);
}

template <class D>
void NavierStokes<D>::load_state(resilience::BlobReader& r) {
  r.pod(t_);
  have_history_ = r.pod<std::uint8_t>() != 0;
  for (auto& c : vel_) resilience::get_vector(r, c);
  resilience::get_vector(r, p_);
  if (vel_[0].size() != d_->num_nodes())
    throw resilience::LayoutError(std::string(Traits::kPhasePrefix) +
                                  ": checkpoint field size " + std::to_string(vel_[0].size()) +
                                  " != discretization size " + std::to_string(d_->num_nodes()));
  for (auto& c : vel_prev_) resilience::get_vector(r, c);
  for (auto& c : conv_prev_) resilience::get_vector(r, c);
  load_solvers(r);
}

template <class D>
void NavierStokes<D>::save_solvers(resilience::BlobWriter& w) const {
  // solvers exist after the first step; before it they are recorded absent
  w.pod(static_cast<std::uint8_t>(pressure_solver_ != nullptr));
  if (pressure_solver_) {
    pressure_solver_->save_state(w);
    velocity_solver_->save_state(w);
    w.pod(static_cast<std::uint8_t>(velocity_solver2_ != nullptr));
    if (velocity_solver2_) velocity_solver2_->save_state(w);
  }
}

template <class D>
void NavierStokes<D>::load_solvers(resilience::BlobReader& r) {
  if (r.pod<std::uint8_t>() == 0) return;  // the saved run had never stepped
  if (!pressure_solver_) build_solvers();
  pressure_solver_->load_state(r);
  velocity_solver_->load_state(r);
  const bool had2 = r.pod<std::uint8_t>() != 0;
  if (had2 != (velocity_solver2_ != nullptr))
    throw resilience::LayoutError(std::string(Traits::kPhasePrefix) +
                                  ": saved time_order != configured time_order");
  if (velocity_solver2_) velocity_solver2_->load_state(r);
}

template <class D>
double NavierStokes<D>::max_speed() const {
  double m = 0.0;
  for (std::size_t g = 0; g < d_->num_nodes(); ++g) {
    double s = 0.0;
    for (const auto& c : vel_) s += c[g] * c[g];
    m = std::max(m, std::sqrt(s));
  }
  return m;
}

template class NavierStokes<Discretization>;
template class NavierStokes<Discretization3D>;

}  // namespace sem
