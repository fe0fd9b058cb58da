#pragma once
// Platelet aggregation / thrombus formation model, following Pivkin,
// Richardson & Karniadakis (PNAS 2006) as adapted by the paper for clotting
// in the aneurysm: platelets are spherical DPD particles with an activation
// state machine
//   Passive -> Triggered (on entering the adhesive wall region)
//   Triggered -> Active (after the activation delay time)
//   Active -> Bound (arrest at the wall or onto already-bound platelets)
// Active/Bound platelets attract each other and the adhesive wall through a
// Morse-like potential; Bound platelets are frozen and become part of the
// growing thrombus.
//
// Platelets are tracked by *global* particle ID and the slot table is
// replicated across ranks under decomposition: every rank holds the same
// (gid, state, trigger_time) rows, each rank resolves gids to local slots
// per pass and applies forces only to particles it owns, and the owner of a
// platelet decides its state transitions (exchange::DistributedDpd
// broadcasts them after every update()). The update is two-phase — all
// transitions are decided against the pre-update states, then applied — so
// the result is independent of slot order and of decomposition (a platelet
// arrests onto a thrombus member one step after that member bound, never in
// the same pass).

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dpd/system.hpp"

namespace dpd {

struct PlateletParams {
  /// Is a point inside the adhesive (damaged-endothelium) wall region?
  /// Setup-time configuration, evaluated per platelet (not per pair).
  // analyze: std-function-ok (setup-time callback, not a pair-loop parameter)
  std::function<bool(const Vec3&)> adhesive_region;
  double trigger_distance = 1.0;  ///< wall distance that triggers activation
  double activation_delay = 2.0;  ///< time between trigger and adhesiveness
  double bind_distance = 0.6;     ///< arrest distance (to wall or bound platelet)
  double bind_speed = 0.8;        ///< arrest only below this speed
};

class PlateletModel final : public ForceModule {
public:
  explicit PlateletModel(PlateletParams p);

  /// Range of the adhesive forces (platelet-platelet Morse and the wall
  /// pull), reported as reach(): a decomposed run ghosts this plus skin.
  static constexpr double kAdhesionCutoff = 1.5;

  /// Register a platelet by global particle ID (the particle must already
  /// exist in the system; for a fresh system gid == insertion index).
  void add_platelet(std::uint32_t gid);

  /// Insert `count` platelets at random fluid positions (margin from walls).
  void seed_platelets(DpdSystem& sys, std::size_t count, unsigned seed = 11);

  void add_forces(DpdSystem& sys) override;
  double reach() const override { return kAdhesionCutoff; }
  /// Drop slots whose particle was removed from the system.
  void on_remove_gids(const std::vector<std::uint32_t>& gids) override;

  /// State machine update; call once per step (after sys.step()). Only
  /// owned platelets transition — under decomposition, follow with
  /// DistributedDpd's platelet sync so every replica agrees.
  void update(DpdSystem& sys);

  std::size_t count(PlateletState s) const;
  std::size_t total() const { return particles_.size(); }

  /// Checkpoint the per-platelet state machine (gids, states, trigger
  /// times); parameters are configuration.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);
  /// Global particle IDs, one per platelet slot.
  const std::vector<std::uint32_t>& particles() const { return particles_; }
  PlateletState state_of(std::size_t k) const { return state_[k]; }
  double trigger_time_of(std::size_t k) const { return trigger_time_[k]; }
  /// Overwrite one slot's state-machine row (decomposition sync only).
  void set_slot_state(std::size_t k, PlateletState s, double trigger_time) {
    state_[k] = s;
    trigger_time_[k] = trigger_time;
  }

private:
  /// Platelet slot of particle gid, or npos. Backed by an index map kept in
  /// sync by add_platelet/on_remove_gids/load_state so the cell-grid
  /// queries in add_forces/update resolve candidates in O(1).
  std::size_t platelet_of(std::uint32_t gid) const {
    const auto it = index_of_.find(gid);
    return it == index_of_.end() ? static_cast<std::size_t>(-1) : it->second;
  }
  void rebuild_index();

  // analyze: no-checkpoint (constructor configuration, incl. the region callback)
  PlateletParams prm_;
  std::vector<std::uint32_t> particles_;  ///< particle gid per platelet slot
  std::vector<PlateletState> state_;
  std::vector<double> trigger_time_;
  // analyze: no-checkpoint (rebuilt from particles_ by load_state/rebuild_index)
  std::unordered_map<std::uint32_t, std::size_t> index_of_;  ///< gid -> slot
  /// Scratch for add_forces: adhesive (gid, gid) pairs, sorted before
  /// application so force accumulation order is grid-independent.
  // analyze: no-checkpoint (per-call scratch, dead between force passes)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> adhesive_pairs_;
  // analyze: no-checkpoint (per-call scratch of the two-phase update)
  std::vector<PlateletState> next_state_;
  // analyze: no-checkpoint (per-call scratch of the two-phase update)
  std::vector<double> next_trigger_;
};

}  // namespace dpd
