#pragma once
// 1D-network <-> 2D-patch coupling (paper Sec. 3: "Coupled to the 3D model,
// the 1D model can be used to account for flow dynamics in peripheral
// arterial networks invisible to the MRI or CT scanners", and NektarG
// couples "3D domains to a number of 1D domains").
//
// Two directions, matching how NEKTAR uses the 1D model:
//
//  * Upstream (1D feeds the patch): the network vessel's end flow rate Q(t)
//    becomes the patch's inlet velocity profile (parabolic with matching
//    flux) — the 1D model supplies physiological waveforms to the resolved
//    patch.
//  * Downstream (patch feeds the 1D bed): the patch's outlet flux is
//    imposed as the inflow of a peripheral 1D network (e.g. the fractal
//    tree), whose inlet pressure is reported back as the patch's outlet
//    impedance diagnostic.
//
// Both couplers exchange once per continuum step, like the patch-to-patch
// interfaces (Sec. 3.2).

#include <functional>

#include "nektar1d/network.hpp"
#include "sem/navier_stokes.hpp"

namespace coupling {

/// Flux-preserving mapping between a vessel cross-section and a 2D channel
/// inlet: Q [area/time in 2D] -> parabolic profile u(y) with
/// integral_0^H u(y) dy = Q2d.
struct FluxProfile {
  double H = 1.0;  ///< channel height
  double u_at(double q2d, double y) const {
    // parabola 6 Q/H^3 * y (H - y): integrates to Q over [0, H]
    return 6.0 * q2d / (H * H * H) * y * (H - y);
  }
};

/// Drives a 2D patch inlet from a 1D network vessel end.
class Network1DToPatch {
public:
  /// `q_scale` converts the vessel's volumetric flow (3D units) into the 2D
  /// patch's area flux (the 2D model is a unit-depth slice).
  Network1DToPatch(nektar1d::ArterialNetwork& net, int vessel, nektar1d::End end,
                   sem::NavierStokes<sem::Operators>& ns, double q_scale = 1.0);

  /// Advance both solvers by one continuum step dt_ns; the 1D network
  /// substeps at its own CFL limit (different time scales, Sec. 3.3).
  void step(double dt_ns);

  double last_q2d() const { return last_q2d_; }

private:
  nektar1d::ArterialNetwork* net_;
  int vessel_;
  nektar1d::End end_;
  sem::NavierStokes<sem::Operators>* ns_;
  double q_scale_;
  FluxProfile profile_;
  double last_q2d_ = 0.0;
};

/// Feeds a 2D patch's outlet flux into a peripheral 1D network.
class PatchToNetwork1D {
public:
  /// The patch outlet flux (per unit depth) is scaled by `q_scale` into the
  /// network root's volumetric inflow.
  PatchToNetwork1D(sem::NavierStokes<sem::Operators>& ns, nektar1d::ArterialNetwork& net,
                   int root_vessel, double q_scale = 1.0);
  // the network holds a callback into this object: pin the address
  PatchToNetwork1D(const PatchToNetwork1D&) = delete;
  PatchToNetwork1D& operator=(const PatchToNetwork1D&) = delete;

  void step(double dt_ns);

  /// Peripheral pressure at the network root (the "impedance" the invisible
  /// bed presents to the patch).
  double peripheral_pressure() const;
  double last_outlet_flux() const { return last_flux_; }

private:
  double outlet_flux() const;

  sem::NavierStokes<sem::Operators>* ns_;
  nektar1d::ArterialNetwork* net_;
  int root_;
  double q_scale_;
  double last_flux_ = 0.0;
  double q_target_ = 0.0;
};

}  // namespace coupling
