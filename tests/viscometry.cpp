#include "viscometry.hpp"

#include <cmath>

#include "dpd/geometry.hpp"
#include "dpd/sampling.hpp"

namespace dpd {

ViscometryResult measure_viscosity(const ViscometryParams& p) {
  DpdParams prm = p.dpd;
  prm.box = {p.box_len, p.box_len, p.channel_height};
  prm.periodic = {true, true, false};

  DpdSystem sys(prm, std::make_shared<ChannelZ>(p.channel_height));
  sys.fill(p.density, kSolvent, p.seed, 0.1);
  const double g = p.body_force;
  sys.set_body_force([g](const Vec3&, Species) { return Vec3{g, 0, 0}; });

  for (int s = 0; s < p.warmup_steps; ++s) sys.step();

  SamplerParams sp;
  sp.nx = 1;
  sp.ny = 1;
  sp.nz = p.bins;
  FieldSampler sampler(sys, sp);
  double temp = 0.0;
  for (int s = 0; s < p.sample_steps; ++s) {
    sys.step();
    sampler.accumulate(sys);
    // transverse temperature: the y/z components carry no mean flow, so
    // they measure the thermostat without streaming bias
    double ke = 0.0;
    for (std::size_t i = 0; i < sys.size(); ++i)
      ke += sys.velocities()[i].y * sys.velocities()[i].y +
            sys.velocities()[i].z * sys.velocities()[i].z;
    temp += ke / (2.0 * static_cast<double>(sys.size()));
  }
  const auto prof = sampler.snapshot();

  // least-squares fit of u(z) = C z (H - z) over the bins (skip the two
  // wall-adjacent bins, where the effective boundary force distorts the
  // profile)
  const double H = p.channel_height;
  double num = 0.0, den = 0.0;
  for (int b = 1; b + 1 < p.bins; ++b) {
    const double z = (static_cast<double>(b) + 0.5) * H / p.bins;
    const double phi = z * (H - z);
    num += prof[static_cast<std::size_t>(b)] * phi;
    den += phi * phi;
  }
  const double C = num / den;

  ViscometryResult r;
  r.u_max = C * H * H / 4.0;
  // u(z) = (g rho / 2 mu) z (H - z)  =>  mu = g rho / (2 C)
  r.dynamic_viscosity = g * p.density / (2.0 * C);
  r.kinematic_viscosity = r.dynamic_viscosity / p.density;
  r.measured_temperature = temp / p.sample_steps;

  double res = 0.0;
  int cnt = 0;
  for (int b = 1; b + 1 < p.bins; ++b) {
    const double z = (static_cast<double>(b) + 0.5) * H / p.bins;
    const double d = prof[static_cast<std::size_t>(b)] - C * z * (H - z);
    res += d * d;
    ++cnt;
  }
  r.fit_residual = std::sqrt(res / cnt) / (std::fabs(r.u_max) + 1e-30);
  return r;
}

}  // namespace dpd
