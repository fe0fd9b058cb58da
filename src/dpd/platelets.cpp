#include "dpd/platelets.hpp"

#include "resilience/blob.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dpd {

namespace {

/// Morse adhesion between active/bound platelets: strength D, range
/// parameter beta and equilibrium distance r0.
constexpr double kMorseD = 20.0;
constexpr double kMorseBeta = 2.0;
constexpr double kMorseR0 = 0.6;
/// Attraction of active platelets to the adhesive wall.
constexpr double kWallPull = 15.0;

}  // namespace

PlateletModel::PlateletModel(PlateletParams p) : prm_(std::move(p)) {
  if (!prm_.adhesive_region)
    prm_.adhesive_region = [](const Vec3&) { return true; };
}

void PlateletModel::add_platelet(std::uint32_t gid) {
  index_of_[gid] = particles_.size();
  particles_.push_back(gid);
  state_.push_back(PlateletState::Passive);
  trigger_time_.push_back(-1.0);
}

void PlateletModel::rebuild_index() {
  index_of_.clear();
  for (std::size_t k = 0; k < particles_.size(); ++k) index_of_[particles_[k]] = k;
}

void PlateletModel::seed_platelets(DpdSystem& sys, std::size_t count, unsigned seed) {
  std::mt19937 rng(seed);
  const auto& box = sys.params().box;
  std::uniform_real_distribution<double> ux(0.0, box.x), uy(0.0, box.y), uz(0.0, box.z);
  std::normal_distribution<double> th(0.0, std::sqrt(sys.params().kBT));
  std::size_t placed = 0, attempts = 0;
  while (placed < count && attempts < 1000 * count) {
    ++attempts;
    Vec3 p{ux(rng), uy(rng), uz(rng)};
    if (sys.geometry().sdf(p) < 1.0) continue;
    add_platelet(sys.gid_of(sys.add_particle(p, {th(rng), th(rng), th(rng)}, kPlatelet)));
    ++placed;
  }
  if (placed < count) throw std::runtime_error("seed_platelets: domain too small");
}

void PlateletModel::add_forces(DpdSystem& sys) {
  auto& pos = sys.positions();
  auto& frc = sys.forces();
  const auto& ghost = sys.ghost_mask();
  const std::size_t np = particles_.size();

  // platelet-platelet adhesion (Active/Bound only): candidates come from
  // the engine's cell grid instead of an all-platelet rescan. Each pair is
  // discovered once (from its lower-gid member) and the collected set is
  // applied in sorted gid order so the force accumulation stays
  // deterministic regardless of grid layout and of decomposition (the same
  // pair subsequence reaches an owned particle on every rank layout).
  sys.ensure_neighbors();
  adhesive_pairs_.clear();
  for (std::size_t a = 0; a < np; ++a) {
    if (state_[a] != PlateletState::Active && state_[a] != PlateletState::Bound) continue;
    const long la = sys.local_of(particles_[a]);
    if (la < 0) continue;  // not resident on this rank
    const auto i = static_cast<std::size_t>(la);
    const std::uint32_t gi = particles_[a];
    sys.query_neighbors(pos[i], kAdhesionCutoff, [&](std::size_t j, const Vec3&, double) {
      const std::uint32_t gj = sys.gid_of(j);
      if (gj <= gi) return;
      const std::size_t b = platelet_of(gj);
      if (b == static_cast<std::size_t>(-1)) return;
      if (state_[b] != PlateletState::Active && state_[b] != PlateletState::Bound) return;
      adhesive_pairs_.emplace_back(gi, gj);
    });
  }
  std::sort(adhesive_pairs_.begin(), adhesive_pairs_.end());
  for (const auto& [gi, gj] : adhesive_pairs_) {
    // both endpoints resolved locally: discovery touched both slots
    const auto i = static_cast<std::size_t>(sys.local_of(gi));
    const auto j = static_cast<std::size_t>(sys.local_of(gj));
    const Vec3 dr = sys.min_image(pos[i], pos[j]);
    const double r = dr.norm();
    if (r > kAdhesionCutoff || r < 1e-9) continue;
    // Morse force magnitude (positive = attraction towards r0)
    const double e = std::exp(-kMorseBeta * (r - kMorseR0));
    const double f = 2.0 * kMorseD * kMorseBeta * (e * e - e);
    // f > 0 for r < r0 (repulsion), f < 0 for r > r0 (attraction):
    // force on i along -er scaled by f
    const Vec3 er = dr * (1.0 / r);
    if (!ghost[i]) frc[i] -= er * f;
    if (!ghost[j]) frc[j] += er * f;
  }

  // active platelets are pulled towards adhesive wall regions
  for (std::size_t a = 0; a < np; ++a) {
    if (state_[a] != PlateletState::Active) continue;
    const long la = sys.local_of(particles_[a]);
    if (la < 0) continue;
    const auto i = static_cast<std::size_t>(la);
    if (ghost[i]) continue;  // per-particle term: the owner applies it
    if (!prm_.adhesive_region(pos[i])) continue;
    const double d = sys.geometry().sdf(pos[i]);
    if (d > kAdhesionCutoff) continue;
    frc[i] -= sys.geometry().normal(pos[i]) * kWallPull;
  }
}

void PlateletModel::on_remove_gids(const std::vector<std::uint32_t>& gids) {
  std::vector<std::uint32_t> np_;
  std::vector<PlateletState> ns_;
  std::vector<double> nt_;
  for (std::size_t k = 0; k < particles_.size(); ++k) {
    if (std::find(gids.begin(), gids.end(), particles_[k]) != gids.end()) continue;
    np_.push_back(particles_[k]);
    ns_.push_back(state_[k]);
    nt_.push_back(trigger_time_[k]);
  }
  particles_ = std::move(np_);
  state_ = std::move(ns_);
  trigger_time_ = std::move(nt_);
  rebuild_index();
}

void PlateletModel::update(DpdSystem& sys) {
  const double t = sys.time();
  auto& pos = sys.positions();
  auto& vel = sys.velocities();
  const auto& ghost = sys.ghost_mask();
  // Two-phase: decide every transition against the pre-update states, then
  // apply. Arrest-onto-bound therefore sees last step's thrombus only —
  // independent of slot order and of which rank owns which platelet.
  next_state_ = state_;
  next_trigger_ = trigger_time_;
  for (std::size_t k = 0; k < particles_.size(); ++k) {
    const long lk = sys.local_of(particles_[k]);
    if (lk < 0) continue;
    const auto i = static_cast<std::size_t>(lk);
    if (ghost[i]) continue;  // the owner decides this platelet's transitions
    switch (state_[k]) {
      case PlateletState::Passive:
        if (prm_.adhesive_region(pos[i]) &&
            sys.geometry().sdf(pos[i]) < prm_.trigger_distance) {
          next_state_[k] = PlateletState::Triggered;
          next_trigger_[k] = t;
        }
        break;
      case PlateletState::Triggered:
        if (t - trigger_time_[k] >= prm_.activation_delay)
          next_state_[k] = PlateletState::Active;
        break;
      case PlateletState::Active: {
        const double speed = Vec3(vel[i]).norm();
        bool arrest = false;
        if (prm_.adhesive_region(pos[i]) &&
            sys.geometry().sdf(pos[i]) < prm_.bind_distance && speed < prm_.bind_speed)
          arrest = true;
        if (!arrest && speed < prm_.bind_speed) {
          // arrest onto an already-bound platelet (thrombus growth); the
          // result is a boolean OR over candidates, so grid visit order
          // does not matter
          sys.query_neighbors(pos[i], prm_.bind_distance,
                              [&](std::size_t j, const Vec3&, double r2) {
                                if (arrest || j == i) return;
                                const std::size_t b = platelet_of(sys.gid_of(j));
                                if (b == static_cast<std::size_t>(-1)) return;
                                if (state_[b] != PlateletState::Bound) return;
                                if (r2 < prm_.bind_distance * prm_.bind_distance) arrest = true;
                              });
        }
        if (arrest) next_state_[k] = PlateletState::Bound;
        break;
      }
      case PlateletState::Bound:
        break;
    }
  }
  for (std::size_t k = 0; k < particles_.size(); ++k) {
    if (next_state_[k] == PlateletState::Bound && state_[k] != PlateletState::Bound) {
      const long lk = sys.local_of(particles_[k]);
      if (lk >= 0) {
        const auto i = static_cast<std::size_t>(lk);
        sys.frozen()[i] = 1;
        vel[i] = {};
      }
    }
    state_[k] = next_state_[k];
    trigger_time_[k] = next_trigger_[k];
  }
}

std::size_t PlateletModel::count(PlateletState s) const {
  std::size_t c = 0;
  for (PlateletState st : state_)
    if (st == s) ++c;
  return c;
}

void PlateletModel::save_state(resilience::BlobWriter& w) const {
  w.vec(particles_);
  w.vec(state_);
  w.vec(trigger_time_);
}

void PlateletModel::load_state(resilience::BlobReader& r) {
  particles_ = r.vec<std::uint32_t>();
  state_ = r.vec<PlateletState>();
  trigger_time_ = r.vec<double>();
  if (state_.size() != particles_.size() || trigger_time_.size() != particles_.size())
    throw resilience::CorruptError("PlateletModel: inconsistent array lengths in checkpoint");
  rebuild_index();
}

}  // namespace dpd
