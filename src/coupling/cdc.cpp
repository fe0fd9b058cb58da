#include "coupling/cdc.hpp"

#include "resilience/blob.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace coupling {

namespace {

struct Axis {
  const char* name;
  double lo, hi;
};

std::array<Axis, 2> axes(const EmbeddedRegion& r) {
  return {{{"x", r.x0, r.x1}, {"y", r.y0, r.y1}}};
}

std::array<Axis, 3> axes(const EmbeddedBox& b) {
  return {{{"x", b.x0, b.x1}, {"y", b.y0, b.y1}, {"z", b.z0, b.z1}}};
}

}  // namespace

template <class NS>
BasicContinuumDpdCoupler<NS>::BasicContinuumDpdCoupler(NS& ns, dpd::DpdSystem& dpd_sys,
                                                       dpd::FlowBc& flow_bc,
                                                       const Region& region,
                                                       const ScaleMap& scales,
                                                       const TimeProgression& tp)
    : ns_(&ns), dpd_(&dpd_sys), flow_bc_(&flow_bc), region_(region), scales_(scales), tp_(tp) {
  scales_.validate();
  // A degenerate region makes dpd_to_ns collapse every particle onto a line
  // or plane (divide-free but silently wrong); reject it up front.
  for (const Axis& a : axes(region_))
    if (!(a.hi > a.lo))
      throw std::invalid_argument("ContinuumDpdCoupler: degenerate embedded region on axis " +
                                  std::string(a.name) + ": [" + std::to_string(a.lo) + ", " +
                                  std::to_string(a.hi) + "], need " + a.name + "1 > " +
                                  a.name + "0");
}

template <class NS>
std::array<double, NS::kDim> BasicContinuumDpdCoupler<NS>::dpd_to_ns(const dpd::Vec3& p) const {
  const auto& box = dpd_->params().box;
  const Region& r = region_;
  if constexpr (NS::kDim == 3)
    return {r.x0 + (p.x / box.x) * (r.x1 - r.x0), r.y0 + (p.y / box.y) * (r.y1 - r.y0),
            r.z0 + (p.z / box.z) * (r.z1 - r.z0)};
  else
    return {r.x0 + (p.x / box.x) * (r.x1 - r.x0), r.y0 + (p.z / box.z) * (r.y1 - r.y0)};
}

template <class NS>
dpd::Vec3 BasicContinuumDpdCoupler<NS>::continuum_velocity_at(const dpd::Vec3& p) const {
  auto x = dpd_to_ns(p);
  // clamp into the NS domain to be robust at the region edges
  const auto& d = ns_->disc();
  const double eps = 1e-9;
  if constexpr (NS::kDim == 3) {
    x[0] = std::clamp(x[0], eps, d.Lx() - eps);
    x[1] = std::clamp(x[1], eps, d.Ly() - eps);
    x[2] = std::clamp(x[2], eps, d.Lz() - eps);
  } else {
    const auto& mesh = d.mesh();
    x[0] = std::clamp(x[0], mesh.x0() + eps, mesh.x0() + mesh.dx() * mesh.grid_nx() - eps);
    x[1] = std::clamp(x[1], mesh.y0() + eps, mesh.y0() + mesh.dy() * mesh.grid_ny() - eps);
  }
  auto u = sem::evaluate(d, x, ns_->velocity());
  for (double& c : u) c = scales_.velocity_ns_to_dpd(c);
  if constexpr (NS::kDim == 3)
    return {u[0], u[1], u[2]};
  else
    return {u[0], 0.0, u[1]};
}

template <class NS>
std::size_t BasicContinuumDpdCoupler<NS>::advance_interval(
    const std::function<void()>& per_dpd_step) {
  // exchange: interpolate the continuum field onto the atomistic interface
  // (the FlowBc buffer evaluates the imposed velocity pointwise)
  flow_bc_->set_target_velocity(
      [this](const dpd::Vec3& p) { return continuum_velocity_at(p); });
  ++exchanges_;

  // Fig. 5 time progression
  std::size_t cg_iters = 0;
  for (int s = 0; s < tp_.exchange_every_ns; ++s) {
    cg_iters += ns_->step();
    for (int q = 0; q < tp_.dpd_per_ns; ++q) {
      dpd_->step();
      flow_bc_->apply(*dpd_);
      if (per_dpd_step) per_dpd_step();
    }
  }
  return cg_iters;
}

template <class NS>
double BasicContinuumDpdCoupler<NS>::interface_mismatch(dpd::FieldSampler& sampler) const {
  const auto snap = sampler.snapshot();
  double acc = 0.0;
  std::size_t cnt = 0;
  for (std::size_t b = 0; b < snap.size(); ++b) {
    const dpd::Vec3 c = sampler.bin_center(b);
    if (dpd_->geometry().sdf(c) < 1.0) continue;  // skip wall-contaminated bins
    acc += std::fabs(snap[b] - continuum_velocity_at(c).x);
    ++cnt;
  }
  return cnt ? acc / static_cast<double>(cnt) : 0.0;
}

template <class NS>
void BasicContinuumDpdCoupler<NS>::save_state(resilience::BlobWriter& w) const {
  w.pod(static_cast<std::uint64_t>(exchanges_));
}

template <class NS>
void BasicContinuumDpdCoupler<NS>::load_state(resilience::BlobReader& r) {
  exchanges_ = static_cast<std::size_t>(r.pod<std::uint64_t>());
}

template class BasicContinuumDpdCoupler<sem::NavierStokes<sem::Discretization>>;
template class BasicContinuumDpdCoupler<sem::NavierStokes<sem::Discretization3D>>;

}  // namespace coupling
