#include "dpd/inflow.hpp"

#include "resilience/blob.hpp"
#include "telemetry/registry.hpp"
#include "xmp/sched/lanes.hpp"

#include <cmath>
#include <optional>

namespace dpd {

namespace {
/// Insertion stops while the whole-domain density exceeds this multiple of
/// the target (the buffer top-up must not over-pressurise the box before the
/// outflow has equilibrated).
constexpr double kMaxDensityFactor = 1.05;

double axis_of(const Vec3& v, int axis) { return axis == 0 ? v.x : axis == 1 ? v.y : v.z; }
}  // namespace

FlowBc::FlowBc(FlowBcParams p) : prm_(std::move(p)), rng_(prm_.seed) {
  if (!prm_.target_velocity)
    prm_.target_velocity = [](const Vec3&) { return Vec3{}; };
}

void FlowBc::apply(DpdSystem& sys) {
  telemetry::ScopedPhase phase("flowbc.apply");
  std::optional<telemetry::ScopedPhase> sub;
  const auto& box = sys.params().box;
  const double L = axis_of(box, prm_.axis);
  auto& pos = sys.positions();
  auto& vel = sys.velocities();

  // 1) delete escapees (both faces: inflow insertion replenishes)
  sub.emplace("flowbc.delete");
  dead_.clear();
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const double c = axis_of(pos[i], prm_.axis);
    if (c < 0.0 || c > L) dead_.push_back(i);
  }
  deleted_ += dead_.size();
  sys.remove_particles(dead_);

  // 2) relax buffer velocities towards the imposed profile: the buffer
  //    particles, found in index order, then relaxed on every idle core.
  //    An update reads only its own particle and the imposed velocity, so
  //    the velocities are bitwise the same at any lane count.
  sub.emplace("flowbc.relax");
  buffer_.clear();
  for (std::size_t i = 0; i < sys.size(); ++i) {
    if (sys.frozen()[i]) continue;
    const double c = axis_of(pos[i], prm_.axis);
    if (c > prm_.buffer_len) continue;
    buffer_.push_back(i);
  }
  std::size_t in_buffer = buffer_.size();
  auto relax = [&](std::size_t lo, std::size_t hi, int) {
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t i = buffer_[k];
      const Vec3 vt = prm_.target_velocity(pos[i]);
      vel[i] += (vt - vel[i]) * prm_.relax;
    }
  };
  xmp::lanes::for_chunks(xmp::lanes::width(), buffer_.size(), relax);

  // 3) insert to hold the buffer at the target density (counts only the
  //    fluid volume: rejection-sample positions against the wall geometry)
  sub.emplace("flowbc.insert");
  const double area_like = (prm_.axis == 0   ? box.y * box.z
                            : prm_.axis == 1 ? box.x * box.z
                                             : box.x * box.y);
  // global guard: estimate the fluid volume once and stop inserting while
  // the whole box runs denser than the target
  if (fluid_volume_ < 0.0) {
    std::mt19937 probe_rng(12345);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    std::size_t hits = 0;
    const std::size_t probes = 4000;
    for (std::size_t k = 0; k < probes; ++k) {
      Vec3 p{u01(probe_rng) * box.x, u01(probe_rng) * box.y, u01(probe_rng) * box.z};
      if (sys.geometry().sdf(p) > 0.0) ++hits;
    }
    fluid_volume_ = box.x * box.y * box.z * static_cast<double>(hits) /
                    static_cast<double>(probes);
  }
  const double global_density = static_cast<double>(sys.size()) / fluid_volume_;
  if (global_density > kMaxDensityFactor * prm_.density) return;

  const auto target = static_cast<std::size_t>(prm_.density * prm_.buffer_len * area_like);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::normal_distribution<double> th(0.0, std::sqrt(sys.params().kBT));
  std::size_t attempts = 0;
  while (in_buffer < target && attempts < 50 * target) {
    ++attempts;
    Vec3 p{u01(rng_) * box.x, u01(rng_) * box.y, u01(rng_) * box.z};
    switch (prm_.axis) {
      case 0: p.x = u01(rng_) * prm_.buffer_len; break;
      case 1: p.y = u01(rng_) * prm_.buffer_len; break;
      default: p.z = u01(rng_) * prm_.buffer_len; break;
    }
    if (sys.geometry().sdf(p) <= 0.2) continue;  // don't insert into walls
    const Vec3 vt = prm_.target_velocity(p);
    sys.add_particle(p, {vt.x + th(rng_), vt.y + th(rng_), vt.z + th(rng_)}, kSolvent);
    ++in_buffer;
    ++inserted_;
  }
}

void FlowBc::save_state(resilience::BlobWriter& w) const {
  resilience::put_rng(w, rng_);
  w.pod(static_cast<std::uint64_t>(inserted_));
  w.pod(static_cast<std::uint64_t>(deleted_));
  w.pod(fluid_volume_);
}

void FlowBc::load_state(resilience::BlobReader& r) {
  resilience::get_rng(r, rng_);
  inserted_ = static_cast<std::size_t>(r.pod<std::uint64_t>());
  deleted_ = static_cast<std::size_t>(r.pod<std::uint64_t>());
  r.pod(fluid_volume_);
  // -1 means "not yet estimated"; an estimate is a finite positive volume.
  // Anything else would silently stop insertion (0) or disable the density
  // guard (NaN) for the rest of the run.
  if (fluid_volume_ != -1.0 && !(std::isfinite(fluid_volume_) && fluid_volume_ > 0.0))
    throw resilience::CorruptError("FlowBc: fluid volume " + std::to_string(fluid_volume_) +
                                   " in checkpoint is neither -1 nor a positive volume");
}

}  // namespace dpd
