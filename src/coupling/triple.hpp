#pragma once
// Triple-decker coupling (Fedosov & Karniadakis 2009, the framework the
// paper adopts in Sec. 3.3; Fig. 5 shows its three columns NS | DPD | MD
// with dt_NS > dt_DPD > dt_MD). The continuum solver drives the DPD layer
// (as in BasicContinuumDpdCoupler); a finer atomistic region — "MD", here a
// particle system with a smaller time step and its own units — is nested
// inside the DPD domain and driven by the DPD layer's windowed mean field
// through interface buffer windows, with a second Eq.-(1) scale map.
//
//   exchange every tau:  NS field -> DPD buffers (scales_ns_dpd)
//                        DPD mean field -> MD buffers (scales_dpd_md)
//   per NS step:         dpd_per_ns DPD steps
//   per DPD step:        md_per_dpd MD steps

#include <memory>

#include "coupling/cdc.hpp"
#include "dpd/buffers.hpp"
#include "dpd/sampling.hpp"

namespace coupling {

/// Axis-aligned sub-box of the DPD domain covered by the MD region.
struct NestedRegion {
  dpd::Vec3 lo{}, hi{};  ///< bounds in DPD coordinates
};

class TripleDecker {
public:
  using Coupler = BasicContinuumDpdCoupler<sem::NavierStokes<sem::Operators>>;

  /// `cdc` couples NS<->DPD (configure it first, including its FlowBc);
  /// `md` is the fine layer; `md_buffers` are its interface windows (in MD
  /// coordinates); `region` maps the MD box into the DPD domain;
  /// `scales_dpd_md` converts DPD velocities into MD units (Eq. 1 applied
  /// to the DPD->MD pair); `sampler_bins` controls the DPD mean-field
  /// sampling resolution.
  TripleDecker(Coupler& cdc, dpd::DpdSystem& md, dpd::BufferZones& md_buffers,
               const NestedRegion& region, const ScaleMap& scales_dpd_md, int md_per_dpd,
               int sampler_bins = 6);

  /// One full coupling interval (Fig. 5): both exchanges fire, then the
  /// nested time progression runs. Optional per-MD-step callback.
  void advance_interval(const std::function<void()>& per_md_step = {});

  /// DPD-layer mean velocity (from the last interval's samples) at an MD
  /// point, expressed in MD units.
  dpd::Vec3 dpd_velocity_at_md_point(const dpd::Vec3& p_md) const;

  std::size_t exchanges() const { return exchanges_; }
  int md_per_dpd() const { return md_per_dpd_; }

private:
  /// Map an MD-space point into DPD space.
  dpd::Vec3 md_to_dpd(const dpd::Vec3& p_md) const;

  Coupler* cdc_;
  dpd::DpdSystem* md_;
  dpd::BufferZones* md_buffers_;
  NestedRegion region_;
  ScaleMap scales_;
  int md_per_dpd_;
  dpd::FieldSampler sx_, sy_, sz_;   ///< DPD-layer mean-field samplers
  la::Vector mean_x_, mean_y_, mean_z_;
  bool have_field_ = false;
  std::size_t exchanges_ = 0;
};

}  // namespace coupling
