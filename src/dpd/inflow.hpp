#pragma once
// Inflow/outflow boundary conditions for non-periodic DPD flows (Lei,
// Fedosov & Karniadakis, JCP 2011): particles are inserted at the inflow
// according to the local flux / target density, velocities in the inflow
// buffer are relaxed towards the imposed boundary velocity, and particles
// leaving through the outflow plane are deleted. The imposed velocity is a
// callback, so the continuum coupling can refresh it every exchange step.

#include <functional>
#include <vector>

#include "dpd/system.hpp"

namespace dpd {

struct FlowBcParams {
  int axis = 0;             ///< flow axis: 0=x, 1=y, 2=z
  double buffer_len = 2.0;  ///< inflow buffer thickness (in rc units)
  double density = 3.0;     ///< target number density in the buffer
  double relax = 0.2;       ///< per-step velocity relaxation factor in the buffer
  unsigned seed = 99;
  /// Imposed velocity at a point (evaluated in the buffer and at insertion).
  /// The buffer relax calls it from several threads at once (one call per
  /// particle), so it must be safe to call concurrently: a pure function of
  /// the point and of state that stays constant during FlowBc::apply.
  // analyze: std-function-ok (coupling callback, evaluated per particle not per pair)
  std::function<Vec3(const Vec3&)> target_velocity{};
};

class FlowBc {
public:
  explicit FlowBc(FlowBcParams p);

  /// Call once per DPD step, after DpdSystem::step().
  void apply(DpdSystem& sys);

  /// Replace the imposed velocity (continuum coupling hook).
  // analyze: std-function-ok (setup-time setter, not a pair-loop parameter)
  void set_target_velocity(std::function<Vec3(const Vec3&)> f) {
    prm_.target_velocity = std::move(f);
  }

  std::size_t inserted_total() const { return inserted_; }
  std::size_t deleted_total() const { return deleted_; }

  /// Checkpoint the insertion RNG, counters and cached fluid volume (the
  /// callback is configuration, re-established by the driver).
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  // analyze: no-checkpoint (configuration, incl. the coupling velocity callback)
  FlowBcParams prm_;
  std::mt19937 rng_;
  std::size_t inserted_ = 0, deleted_ = 0;
  double fluid_volume_ = -1.0;  ///< lazily estimated from the geometry
  // analyze: no-checkpoint (per-step scratch: the escapees of one apply)
  std::vector<std::size_t> dead_;
  // analyze: no-checkpoint (per-step scratch: the buffer particles of one apply)
  std::vector<std::size_t> buffer_;
};

}  // namespace dpd
