#include "nektar1d/network.hpp"

#include "resilience/blob_la.hpp"

#include <cmath>
#include <stdexcept>

#include "la/dense.hpp"

namespace nektar1d {

int ArterialNetwork::add_vessel(const VesselParams& p) {
  vessels_.push_back(std::make_unique<Artery>(p));
  return static_cast<int>(vessels_.size()) - 1;
}

void ArterialNetwork::set_inlet_flow(int v, std::function<double(double)> Q) {
  inlets_.push_back({v, std::move(Q)});
}

void ArterialNetwork::set_outlet_rcr(int v, double Rp, double Rd, double C) {
  outlets_.push_back({v, Rp, Rd, C, 0.0});
}

void ArterialNetwork::set_outlet_resistance(int v, double R) {
  // Pure resistance: no compliance; model as RCR with tiny C and all the
  // resistance proximal so the capacitor never charges meaningfully.
  outlets_.push_back({v, R, 1e-12, 1e-12, 0.0});
}

void ArterialNetwork::add_junction(std::vector<Attachment> atts) {
  if (atts.size() < 2) throw std::invalid_argument("add_junction: need >= 2 attachments");
  junctions_.push_back({std::move(atts)});
}

void ArterialNetwork::apply_inlet(const Inlet& in, double t_new) {
  Artery& a = vessel(in.vessel);
  const double Qt = in.Q(t_new);
  // Outgoing characteristic at the left end is W2 (speed U - c < 0);
  // find (A, U) with A U = Q and W2(A, U) = W2_interior by Newton on A.
  const double w2i = a.W2(a.A_left(), a.U_left());
  double A = a.A_left();
  for (int it = 0; it < 50; ++it) {
    const double c = a.wave_speed(A);
    const double U = w2i + 4.0 * (c - a.c0());
    const double f = A * U - Qt;
    // df/dA = U + A dU/dA, dU/dA = 4 dc/dA = c / A (since c ~ A^{1/4})
    const double df = U + A * (c / A);
    const double dA = f / df;
    A -= dA;
    if (A <= 0.0) A = 0.25 * (A + dA);  // backtrack
    if (std::fabs(dA) < 1e-14 * a.params().A0) break;
  }
  const double U = w2i + 4.0 * (a.wave_speed(A) - a.c0());
  a.set_left_ghost(A, U);
}

void ArterialNetwork::apply_outlet(Outlet& out, double dt) {
  Artery& a = vessel(out.vessel);
  // Outgoing characteristic at the right end is W1; close with the
  // windkessel p = Q Rp + pc, C dpc/dt = Q - pc/Rd (pc held fixed within the
  // Newton solve, advanced after).
  const double w1i = a.W1(a.A_right(), a.U_right());
  double A = a.A_right();
  double Q = 0.0;
  for (int it = 0; it < 50; ++it) {
    const double c = a.wave_speed(A);
    const double U = w1i - 4.0 * (c - a.c0());
    Q = A * U;
    const double f = a.pressure(A) - (Q * out.Rp + out.pc);
    // dp/dA = beta/(2 sqrt A); dQ/dA = U + A dU/dA, dU/dA = -c/A
    const double dp = a.params().beta / (2.0 * std::sqrt(A));
    const double dQ = U - c;
    const double df = dp - dQ * out.Rp;
    const double dA = f / df;
    A -= dA;
    if (A <= 0.0) A = 0.25 * (A + dA);
    if (std::fabs(dA) < 1e-14 * a.params().A0) break;
  }
  const double U = w1i - 4.0 * (a.wave_speed(A) - a.c0());
  a.set_right_ghost(A, U);
  // advance the windkessel capacitor (implicit in pc, explicit in Q)
  Q = A * U;
  out.pc = (out.pc + dt * Q / out.C) / (1.0 + dt / (out.Rd * out.C));
}

void ArterialNetwork::apply_junction(const Junction& j) {
  const std::size_t m = j.atts.size();
  // Unknowns: (A_k, U_k) for each attachment; equations:
  //   m characteristic preservations, 1 mass conservation,
  //   m-1 total-pressure continuities.
  la::Vector x(2 * m);  // [A_0, U_0, A_1, U_1, ...]
  std::vector<double> w_out(m);
  std::vector<const Artery*> art(m);
  std::vector<bool> right(m);
  for (std::size_t k = 0; k < m; ++k) {
    const auto& at = j.atts[k];
    art[k] = &vessel(at.vessel);
    right[k] = at.end == End::Right;
    const double A = right[k] ? art[k]->A_right() : art[k]->A_left();
    const double U = right[k] ? art[k]->U_right() : art[k]->U_left();
    w_out[k] = right[k] ? art[k]->W1(A, U) : art[k]->W2(A, U);
    x[2 * k] = A;
    x[2 * k + 1] = U;
  }

  auto residual = [&](const la::Vector& s, la::Vector& r) {
    // characteristic preservation
    for (std::size_t k = 0; k < m; ++k) {
      const double A = s[2 * k], U = s[2 * k + 1];
      r[k] = (right[k] ? art[k]->W1(A, U) : art[k]->W2(A, U)) - w_out[k];
    }
    // mass: sum of flow into the junction = 0 (right end contributes +Q,
    // left end -Q)
    double q = 0.0;
    for (std::size_t k = 0; k < m; ++k)
      q += (right[k] ? 1.0 : -1.0) * s[2 * k] * s[2 * k + 1];
    r[m] = q;
    // total pressure continuity relative to attachment 0
    const double rho0 = art[0]->params().rho;
    const double pt0 = art[0]->pressure(s[0]) + 0.5 * rho0 * s[1] * s[1];
    for (std::size_t k = 1; k < m; ++k) {
      const double rhok = art[k]->params().rho;
      r[m + k] = art[k]->pressure(s[2 * k]) + 0.5 * rhok * s[2 * k + 1] * s[2 * k + 1] - pt0;
    }
  };

  la::Vector r(2 * m), r2(2 * m), dx;
  for (int it = 0; it < 60; ++it) {
    residual(x, r);
    double rn = 0.0;
    for (std::size_t i = 0; i < 2 * m; ++i) rn = std::max(rn, std::fabs(r[i]));
    if (rn < 1e-11 * art[0]->params().beta * 1e-3) break;
    // numeric Jacobian
    la::DenseMatrix J(2 * m, 2 * m);
    for (std::size_t c = 0; c < 2 * m; ++c) {
      la::Vector xp = x;
      const double h = 1e-7 * (1.0 + std::fabs(x[c]));
      xp[c] += h;
      residual(xp, r2);
      for (std::size_t i = 0; i < 2 * m; ++i) J(i, c) = (r2[i] - r[i]) / h;
    }
    if (!la::lu_solve(J, r, dx))
      throw std::runtime_error("apply_junction: singular Jacobian");
    for (std::size_t i = 0; i < 2 * m; ++i) x[i] -= dx[i];
    for (std::size_t k = 0; k < m; ++k)
      if (x[2 * k] <= 0.0) x[2 * k] = 0.1 * art[k]->params().A0;
  }

  for (std::size_t k = 0; k < m; ++k) {
    Artery& a = vessel(j.atts[k].vessel);
    if (right[k])
      a.set_right_ghost(x[2 * k], x[2 * k + 1]);
    else
      a.set_left_ghost(x[2 * k], x[2 * k + 1]);
  }
}

void ArterialNetwork::step(double dt) {
  const double t_new = t_ + dt;
  for (const auto& in : inlets_) apply_inlet(in, t_new);
  for (auto& out : outlets_) apply_outlet(out, dt);
  for (const auto& j : junctions_) apply_junction(j);
  for (auto& v : vessels_) v->step(dt);
  t_ = t_new;
}

double ArterialNetwork::suggested_dt(double cfl) const {
  double dt = 1e30;
  for (const auto& v : vessels_) {
    const double h = v->params().length / static_cast<double>(v->params().elements);
    const double hmin = h / (v->params().order * v->params().order);
    dt = std::min(dt, cfl * hmin / v->max_wave_speed());
  }
  return dt;
}

double ArterialNetwork::pressure_at(int v, End e) const {
  const Artery& a = vessel(v);
  return a.pressure(e == End::Left ? a.A_left() : a.A_right());
}

double ArterialNetwork::flow_at(int v, End e) const {
  const Artery& a = vessel(v);
  return e == End::Left ? a.Q_left() : a.Q_right();
}

void ArterialNetwork::save_state(resilience::BlobWriter& w) const {
  w.pod(t_);
  w.pod(static_cast<std::uint64_t>(vessels_.size()));
  for (const auto& v : vessels_) v->save_state(w);
  w.pod(static_cast<std::uint64_t>(outlets_.size()));
  for (const auto& o : outlets_) w.pod(o.pc);
}

void ArterialNetwork::load_state(resilience::BlobReader& r) {
  r.pod(t_);
  if (r.pod<std::uint64_t>() != vessels_.size())
    throw resilience::LayoutError("ArterialNetwork: checkpoint vessel count != topology");
  for (auto& v : vessels_) v->load_state(r);
  if (r.pod<std::uint64_t>() != outlets_.size())
    throw resilience::LayoutError("ArterialNetwork: checkpoint outlet count != topology");
  for (auto& o : outlets_) r.pod(o.pc);
}

}  // namespace nektar1d
