#include "coupling/net1d2d.hpp"

#include <algorithm>
#include <cmath>

namespace coupling {

Network1DToPatch::Network1DToPatch(nektar1d::ArterialNetwork& net, int vessel,
                                   nektar1d::End end,
                                   sem::NavierStokes<sem::Discretization>& ns, double q_scale)
    : net_(&net), vessel_(vessel), end_(end), ns_(&ns), q_scale_(q_scale) {
  const auto& mesh = ns.disc().mesh();
  profile_.H = mesh.dy() * static_cast<double>(mesh.grid_ny());
}

void Network1DToPatch::step(double dt_ns) {
  // 1) advance the 1D network up to the continuum's new time (own CFL)
  const double t_target = ns_->time() + dt_ns;
  while (net_->time() < t_target) {
    const double dt1d = std::min(net_->suggested_dt(0.3), t_target - net_->time());
    net_->step(dt1d);
  }
  // 2) impose the vessel's flow as the patch inlet profile
  last_q2d_ = q_scale_ * net_->flow_at(vessel_, end_);
  const auto& disc = ns_->disc();
  const auto& nodes = disc.boundary_nodes(mesh::kInlet);
  std::vector<double> uu(nodes.size()), vv(nodes.size(), 0.0);
  for (std::size_t k = 0; k < nodes.size(); ++k)
    uu[k] = profile_.u_at(last_q2d_, disc.node_y(nodes[k]));
  ns_->set_velocity_bc_values(mesh::kInlet, std::move(uu), std::move(vv));
  // 3) advance the patch
  ns_->step();
}

PatchToNetwork1D::PatchToNetwork1D(sem::NavierStokes<sem::Discretization>& ns,
                                   nektar1d::ArterialNetwork& net, int root_vessel,
                                   double q_scale)
    : ns_(&ns), net_(&net), root_(root_vessel), q_scale_(q_scale) {
  // register the (mutable) inflow target once; step() refreshes q_target_
  net_->set_inlet_flow(root_, [this](double) { return q_target_; });
}

double PatchToNetwork1D::outlet_flux() const {
  const auto& disc = ns_->disc();
  const auto& mesh = disc.mesh();
  const double H = mesh.dy() * static_cast<double>(mesh.grid_ny());
  const double x_out = mesh.x0() + mesh.dx() * static_cast<double>(mesh.grid_nx()) - 1e-9;
  // midpoint quadrature over the outlet line
  const int n = 24;
  double q = 0.0;
  for (int k = 0; k < n; ++k) {
    const double y = H * (static_cast<double>(k) + 0.5) / n;
    q += sem::evaluate(disc, {x_out, y}, ns_->u()) * (H / n);
  }
  return q;
}

void PatchToNetwork1D::step(double dt_ns) {
  last_flux_ = outlet_flux();
  q_target_ = q_scale_ * last_flux_;
  const double t_target = ns_->time() + dt_ns;
  while (net_->time() < t_target) {
    const double dt1d = std::min(net_->suggested_dt(0.3), t_target - net_->time());
    net_->step(dt1d);
  }
  ns_->step();
}

double PatchToNetwork1D::peripheral_pressure() const {
  return net_->pressure_at(root_, nektar1d::End::Left);
}

}  // namespace coupling
