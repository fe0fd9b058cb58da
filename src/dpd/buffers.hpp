#pragma once
// Multi-window velocity buffers: the paper's atomistic subdomain interfaces
// the continuum at *five* planar surfaces Gamma_I k (Sec. 4.2), each
// carrying its own imposed velocity. BufferZones generalises the single
// inflow buffer of FlowBc: any number of box-shaped relaxation windows,
// each steering the local particle velocities towards a callback field
// (refreshed by the coupler every exchange).

#include <functional>
#include <string>
#include <vector>

#include "dpd/system.hpp"

namespace dpd {

struct BufferWindow {
  std::string name;             ///< diagnostic label (e.g. "Gamma_I1")
  Vec3 lo{}, hi{};              ///< axis-aligned window bounds
  double relax = 0.2;           ///< per-step relaxation factor
  /// Imposed velocity field (refreshed by the coupler; per-particle use).
  // analyze: std-function-ok (coupling callback, evaluated per particle not per pair)
  std::function<Vec3(const Vec3&)> target;
};

class BufferZones {
public:
  void add_window(BufferWindow w) { windows_.push_back(std::move(w)); }
  std::size_t size() const { return windows_.size(); }
  BufferWindow& window(std::size_t k) { return windows_[k]; }

  /// Replace every window's target with velocities drawn from one shared
  /// field (the coupler's interpolated continuum solution).
  // analyze: std-function-ok (setup-time setter, not a pair-loop parameter)
  void set_shared_target(const std::function<Vec3(const Vec3&)>& field);

  /// Apply all windows to the system (call once per DPD step).
  void apply(DpdSystem& sys) const;

  /// Particles currently inside window k (diagnostics / tests).
  std::size_t count_inside(const DpdSystem& sys, std::size_t k) const;

  /// Mean velocity error |v - target| over window k's particles.
  double mismatch(const DpdSystem& sys, std::size_t k) const;

private:
  static bool inside(const BufferWindow& w, const Vec3& p) {
    return p.x >= w.lo.x && p.x <= w.hi.x && p.y >= w.lo.y && p.y <= w.hi.y &&
           p.z >= w.lo.z && p.z <= w.hi.z;
  }
  std::vector<BufferWindow> windows_;
};

}  // namespace dpd
