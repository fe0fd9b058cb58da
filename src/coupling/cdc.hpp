#pragma once
// Continuum-atomistic coupling (paper Sec. 3.3): an atomistic subdomain
// Omega_A (a DPD box) is embedded in a continuum patch Omega_C (a 2D or 3D
// SEM Navier-Stokes solver). Every exchange period tau the continuum
// velocity is interpolated onto the atomistic interface samples, scaled by
// Eq. (1), and imposed on the DPD inflow buffer; the DPD solver then takes
// dpd_per_ns * exchange_every_ns steps per interval (Fig. 5 schedule).
//
// Geometry mapping: the DPD box covers an axis-aligned region of the
// continuum domain. In 3D (the paper's configuration) all three axes map
// directly and the full velocity vector is imposed. In 2D, DPD x <-> NS x
// and DPD z <-> NS y; DPD y is the out-of-plane (homogeneous, periodic)
// direction.

#include <array>
#include <functional>
#include <type_traits>

#include "coupling/scales.hpp"
#include "dpd/buffers.hpp"
#include "dpd/inflow.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "sem/navier_stokes.hpp"

namespace coupling {

/// NS-space rectangle covered by the DPD box (2D).
struct EmbeddedRegion {
  double x0 = 0.0, x1 = 1.0;  ///< NS x-range of the DPD box
  double y0 = 0.0, y1 = 1.0;  ///< NS y-range of the DPD box (maps to DPD z)
};

/// Continuum-space box covered by the DPD domain (3D).
struct EmbeddedBox {
  double x0 = 0, x1 = 1, y0 = 0, y1 = 1, z0 = 0, z1 = 1;
};

/// Instantiated for sem::NavierStokes<Operators> and <Operators3D>.
template <class NS>
class BasicContinuumDpdCoupler {
public:
  using Region = std::conditional_t<NS::kDim == 3, EmbeddedBox, EmbeddedRegion>;

  /// `flow_bc` is the DPD inflow/outflow machinery whose target velocity the
  /// coupler refreshes each exchange. All objects must outlive the coupler.
  /// Throws std::invalid_argument on invalid scales or a region that is
  /// degenerate (hi <= lo, or NaN) on any axis.
  BasicContinuumDpdCoupler(NS& ns, dpd::DpdSystem& dpd_sys, dpd::FlowBc& flow_bc,
                           const Region& region, const ScaleMap& scales,
                           const TimeProgression& tp);

  /// Register additional interface windows (the paper's Gamma_I1..5 planar
  /// surfaces): their shared target is refreshed at every exchange and they
  /// are applied each DPD step. Must outlive the coupler.
  void set_buffer_zones(dpd::BufferZones* zones) { buffers_ = zones; }

  /// One coupling interval (Fig. 5): refresh atomistic BCs from the
  /// continuum, then advance NS by exchange_every_ns steps and DPD by
  /// dpd_per_ns steps per NS step. Optional per-DPD-step callback (platelet
  /// updates, sampling...). Returns the total continuum CG iterations spent
  /// (warm-start accounting for the ensemble engine).
  std::size_t advance_interval(const std::function<void()>& per_dpd_step = {});

  std::size_t exchanges() const { return exchanges_; }

  /// Checkpoint the coupling bookkeeping (interface exchange counter).
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

  /// Continuum velocity at a DPD point, in DPD units (the imposed-BC field).
  dpd::Vec3 continuum_velocity_at(const dpd::Vec3& p) const;

  /// Fig. 9 diagnostic: mean |u_DPD - u_NS| over the sampler's bins (both in
  /// DPD units), using a window of already-accumulated samples.
  double interface_mismatch(dpd::FieldSampler& sampler) const;

  dpd::DpdSystem& dpd_system() { return *dpd_; }

private:
  /// Map a DPD-space point to NS space.
  std::array<double, NS::kDim> dpd_to_ns(const dpd::Vec3& p) const;

  // analyze: no-checkpoint (coupled solvers checkpoint separately via the coordinator)
  NS* ns_;
  // analyze: no-checkpoint (coupled solvers checkpoint separately via the coordinator)
  dpd::DpdSystem* dpd_;
  // analyze: no-checkpoint (coupled solvers checkpoint separately via the coordinator)
  dpd::FlowBc* flow_bc_;
  // analyze: no-checkpoint (owned by the driver; checkpointed separately if registered)
  dpd::BufferZones* buffers_ = nullptr;
  // analyze: no-checkpoint (constructor configuration)
  Region region_;
  // analyze: no-checkpoint (constructor configuration)
  ScaleMap scales_;
  // analyze: no-checkpoint (constructor configuration)
  TimeProgression tp_;
  std::size_t exchanges_ = 0;
};

extern template class BasicContinuumDpdCoupler<sem::NavierStokes<sem::Operators>>;
extern template class BasicContinuumDpdCoupler<sem::NavierStokes<sem::Operators3D>>;

/// The 2D and 3D spellings bench/e2e/coupled.cpp uses.
using ContinuumDpdCoupler = BasicContinuumDpdCoupler<sem::NavierStokes<sem::Operators>>;
using ContinuumDpdCoupler3D = BasicContinuumDpdCoupler<sem::NavierStokes<sem::Operators3D>>;

}  // namespace coupling
