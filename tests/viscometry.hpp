#pragma once
// DPD fluid viscometry. The Eq.-(1) unit scaling needs nu_DPD, which for a
// DPD fluid is an emergent property of (a, gamma, rho, kBT, dt) rather than
// an input. measure_viscosity() runs a body-force-driven plane-Poiseuille
// numerical experiment and fits the parabolic profile:
//
//   u(z) = (g rho / (2 mu)) z (H - z)   =>   mu = g rho H^2 / (8 u_max)
//
// so coupled setups can calibrate the scale map against the actual fluid
// instead of assuming a value.

#include "dpd/system.hpp"

namespace dpd {

struct ViscometryParams {
  double density = 3.0;
  double body_force = 0.08;
  double channel_height = 5.0;   ///< small: Poiseuille develops in ~t = 0.1 H^2/nu
  double box_len = 8.0;          ///< periodic extent in x and y
  int warmup_steps = 2500;
  int sample_steps = 2500;
  int bins = 12;
  unsigned seed = 3;
  /// Pair/thermostat parameters to measure (defaults: standard fluid).
  DpdParams dpd;
};

struct ViscometryResult {
  double dynamic_viscosity = 0.0;    ///< mu
  double kinematic_viscosity = 0.0;  ///< nu = mu / rho
  double u_max = 0.0;                ///< fitted centerline speed
  double fit_residual = 0.0;         ///< rms of (profile - fit) / u_max
  double measured_temperature = 0.0;
};

/// Run the Poiseuille experiment and fit. Deterministic for a given seed.
ViscometryResult measure_viscosity(const ViscometryParams& p = {});

}  // namespace dpd
