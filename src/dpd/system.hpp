#pragma once
// Core DPD engine (the in-house DPD-LAMMPS stand-in): soft pairwise
// conservative + dissipative + random forces (Groot & Warren 1997,
// Hoogerbrugge & Koelman 1992), Verlet neighbor-list pair search with an
// AVX2-batched force kernel (see docs/PERF.md), modified velocity-Verlet
// integration, SDF walls with effective boundary forces and bounce-back,
// plus pluggable force modules (bonded cells, platelet adhesion).
//
// Particle state lives in structure-of-arrays lanes (soa.hpp) and every
// particle carries a stable 32-bit global ID. The counter-based pair RNG is
// keyed on gids, never on local indices, so trajectories are invariant to
// index compaction (remove_particles) and to how particles are distributed
// over ranks (src/dpd/exchange/). A system can host ghost particles —
// read-only images of particles owned by neighbouring subdomains — marked
// in is_ghost_ and excluded from integration and diagnostics; the
// ExchangeHook seam lets the decomposition driver refresh them before
// every force evaluation.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "dpd/geometry.hpp"
#include "dpd/neighbor.hpp"
#include "dpd/soa.hpp"
#include "dpd/types.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace dpd {

class DpdSystem;

/// Extra force contributions evaluated every force pass (bond networks,
/// platelet adhesion).
class ForceModule {
public:
  virtual ~ForceModule() = default;
  virtual void add_forces(DpdSystem& sys) = 0;
  /// Farthest separation at which the module couples two particles; 0 means
  /// within the pair cutoff rc. A decomposition sizes its ghost shell from
  /// the largest reach (exchange::DistributedDpd).
  virtual double reach() const { return 0.0; }
  /// Called after particle removal with the global IDs that vanished, so
  /// the modules, which track particles by gid, can prune dead references.
  virtual void on_remove_gids(const std::vector<std::uint32_t>& gids) { (void)gids; }
};

/// Domain-decomposition seam (implemented by exchange::DistributedDpd).
/// step() calls refresh() immediately before every force evaluation so the
/// driver can migrate owners, rebuild halos, and push current ghost
/// positions/velocities.
class ExchangeHook {
public:
  virtual ~ExchangeHook() = default;
  virtual void refresh(DpdSystem& sys) = 0;
  /// True when refresh() left a split-phase ghost update in flight: ghost
  /// slots still hold stale pos/vel, and the engine must compute only
  /// interior (owned-only) neighbor rows until finish_refresh() completes
  /// the exchange. Drives DpdSystem's overlapped pair pass.
  virtual bool overlap_pending() const { return false; }
  /// Complete an in-flight split-phase refresh (no-op otherwise). Called by
  /// the engine between its interior and boundary row passes.
  virtual void finish_refresh(DpdSystem& sys) { (void)sys; }
};

/// Flat particle record used by the exchange layer to (re)build a rank's
/// local population (migration, halo build, scatter/gather).
struct ParticleRecord {
  std::uint32_t gid = 0;
  std::uint8_t species = 0;
  std::uint8_t frozen = 0;
  std::uint8_t ghost = 0;
  Vec3 pos{};
  Vec3 vel{};      ///< contents of vel_ at capture time (predicted inside a step)
  Vec3 aux_vel{};  ///< contents of v_pred_ at capture time (actual inside a step)
  Vec3 frc_old{};  ///< previous-step force (velocity-Verlet half-step memory)
};

struct DpdParams {
  Vec3 box{20.0, 10.0, 10.0};
  std::array<bool, 3> periodic{true, true, false};
  double rc = 1.0;
  double kBT = 1.0;
  double dt = 0.01;
  /// Verlet-list skin radius: the neighbor list covers rc + skin and is
  /// reused until some particle moves farther than skin/2 (0 disables
  /// reuse: rebuild on every force evaluation).
  double skin = kDefaultSkin;
};

class DpdSystem {
public:
  /// Groot-Warren pair coefficients, the same for every pair of species:
  /// conservative repulsion a and dissipative gamma (the random amplitude
  /// sigma = sqrt(2 gamma kBT) follows from DpdParams::kBT).
  static constexpr double kPairA = 25.0;
  static constexpr double kPairGamma = 4.5;
  /// Listed pairs per pair-kernel call: the pair pass batches consecutive
  /// rows up to this many (a longer row is a batch of its own). Batches of
  /// 64, 256 and 1,024 time the same; one row alone would give a call about
  /// 7 in-range lanes.
  static constexpr std::size_t kPairBatch = 256;

  DpdSystem(const DpdParams& prm, std::shared_ptr<Geometry> geom);

  const DpdParams& params() const { return prm_; }
  const Geometry& geometry() const { return *geom_; }

  // --- population ---
  /// Append a particle with gid next_gid(); the next neighbor-list pass
  /// merges it into the live list.
  std::size_t add_particle(const Vec3& pos, const Vec3& vel, Species s);
  /// Fill the fluid region (sdf > margin) with `density` particles per unit
  /// volume at Maxwellian velocities; returns number inserted.
  std::size_t fill(double density, Species s, unsigned seed = 7, double margin = 0.0);
  /// Remove particles by index (any order, duplicates allowed): the lane
  /// pass of merge_particles with the survivors kept and no records, so a
  /// survivor keeps every lane, force and global ID included (its pair-RNG
  /// streams are unchanged). The neighbor list records the index map and
  /// applies it at the next pass only if that pass keeps the list
  /// (NeighborList::on_remap); the modules prune the removed gids. Its
  /// scratch is members, so it allocates nothing once warm (a module's
  /// pruning may). Throws on an index out of range (std::out_of_range) and
  /// while decomposed.
  void remove_particles(const std::vector<std::size_t>& idx);

  std::size_t size() const { return pos_.size(); }
  SoA3& positions() { return pos_; }
  SoA3& velocities() { return vel_; }
  SoA3& forces() { return frc_; }
  const SoA3& positions() const { return pos_; }
  const SoA3& velocities() const { return vel_; }
  const SoA3& forces() const { return frc_; }
  std::vector<Species>& species() { return species_; }
  const std::vector<Species>& species() const { return species_; }
  /// Frozen particles (bound platelets, wall dummies) do not move.
  std::vector<char>& frozen() { return frozen_; }
  const std::vector<char>& frozen() const { return frozen_; }

  // --- global particle identity & decomposition ---
  const std::vector<std::uint32_t>& gids() const { return gid_; }
  std::uint32_t gid_of(std::size_t i) const { return gid_[i]; }
  /// Local index of a global ID, or -1 when the particle is neither owned
  /// nor ghosted here. A binary search: gids are strictly ascending in
  /// every layout (add_particle appends a fresh gid, removal compacts in
  /// order, merge_particles and load_state reject anything else).
  long local_of(std::uint32_t gid) const {
    const auto it = std::lower_bound(gid_.begin(), gid_.end(), gid);
    return it != gid_.end() && *it == gid ? static_cast<long>(it - gid_.begin()) : -1;
  }
  /// Ghost mask: 1 for halo images owned by another rank (skipped by the
  /// integrator and by diagnostics), 0 for owned particles.
  const std::vector<char>& ghost_mask() const { return is_ghost_; }
  bool is_ghost(std::size_t i) const { return is_ghost_[i] != 0; }
  std::size_t owned_count() const;
  /// Next gid add_particle() would assign (the global allocation cursor; a
  /// decomposition driver keeps it identical on every rank).
  std::uint32_t next_gid() const { return next_gid_; }
  void set_next_gid(std::uint32_t g) { next_gid_ = g; }

  /// Install (or clear, with nullptr) the decomposition driver. The hook is
  /// borrowed, not owned, and must outlive the system or be cleared first.
  void set_exchange(ExchangeHook* h) { exchange_ = h; }
  bool distributed() const { return exchange_ != nullptr; }
  /// Enable/disable the neighbor-list ghost pair filter (see
  /// NeighborList::set_pair_filter); the mask is this system's ghost mask.
  void set_ghost_pair_filter(bool enabled) {
    nlist_.set_pair_filter(enabled ? &is_ghost_ : nullptr);
  }

  /// Snapshot one particle into the flat exchange record format.
  ParticleRecord particle_record(std::size_t i) const;
  /// The layout primitive of a decomposition rebuild: replace the local
  /// population with the gid-ordered merge of the particles at local slots
  /// `keep` (ascending) and the records of `runs` (each ascending by gid).
  /// Kept particles move with every lane, their integrator scratch
  /// included; records fill their slots as particle_record() captured them;
  /// every force lane is zeroed. slot[q] receives the new local index of
  /// input q, numbering `keep` first and then each run's records in order.
  /// Throws std::invalid_argument, before any lane changes, unless the
  /// merged gids are strictly ascending — so local index order equals gid
  /// order on every rank. Invalidates the neighbor list; does not touch
  /// next_gid_.
  void merge_particles(const std::vector<std::uint32_t>& keep,
                       std::span<const std::span<const ParticleRecord>> runs,
                       std::vector<std::uint32_t>& slot);
  /// Replace the whole local population from gid-ascending records: the
  /// merge with no kept particles.
  void reset_particles(const std::vector<ParticleRecord>& recs);

  /// Throws while decomposed: the ghost shell was sized from force_reach().
  void add_module(std::shared_ptr<ForceModule> m);
  /// max(rc, every module's ForceModule::reach()).
  double force_reach() const;

  /// Per-particle external force (body force / pressure gradient).
  /// Setup-time configuration, evaluated outside the pair hot loop.
  // analyze: std-function-ok (setup-time callback, not a pair-loop parameter)
  using BodyForceFn = std::function<Vec3(const Vec3& pos, Species s)>;
  void set_body_force(BodyForceFn f) { body_force_ = std::move(f); }

  // --- dynamics ---
  /// Recompute frc_ from scratch (pair + wall + body + modules).
  void compute_forces();
  /// One modified-velocity-Verlet step (incl. wall reflection, wrapping).
  void step();
  std::uint64_t step_count() const { return step_; }
  double time() const { return static_cast<double>(step_) * prm_.dt; }

  // --- diagnostics (owned particles only) ---
  double kinetic_temperature() const;
  Vec3 total_momentum() const;

  /// Minimum-image displacement a -> b under the box periodicity (the
  /// neighbor list's).
  Vec3 min_image(const Vec3& a, const Vec3& b) const { return nlist_.min_image(a, b); }

  /// The engine's persistent RNG (used by fill(); exposed so restart can
  /// capture and restore the exact engine state).
  std::mt19937& rng() { return rng_; }
  const std::mt19937& rng() const { return rng_; }

  /// Checkpoint the full particle state: step counter, positions/velocities,
  /// current and previous forces (the modified-velocity-Verlet half-step
  /// memory), species, frozen flags, global IDs + allocation cursor, the
  /// ghost mask, and the RNG engine — everything needed for a
  /// bitwise-identical restart. The Verlet list and the integrator's
  /// prediction scratch are rebuilt on demand and deliberately not
  /// serialised (restart trajectories stay bitwise identical regardless;
  /// see docs/PERF.md). Modules serialise separately. load_state throws
  /// resilience::CorruptError on inconsistent lengths or gids that are not
  /// strictly ascending.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

  // --- pair iteration -----------------------------------------------------
  //
  // The hot path takes a template parameter so the per-pair kernel inlines
  // (a std::function here costs an indirect call per pair; the repo lint
  // forbids reintroducing one).

  /// Loop over all interacting pairs (r < rc) via the Verlet neighbor list;
  /// fn gets (i, j, dr = xj - xi minimum image, r). Reuses the list while
  /// the skin criterion holds, rebuilds otherwise.
  template <class Fn>
  void for_each_pair(Fn&& fn) {
    ensure_neighbors();
    nlist_.for_each(pos_, std::forward<Fn>(fn));
  }

  /// Bring the Verlet list and its cell grid up to date with the current
  /// positions (no-op while the skin criterion holds).
  void ensure_neighbors() { nlist_.ensure(pos_); }

  /// Visit every particle within `cutoff` of point `p` via the neighbor
  /// grid: fn(j, dr = xj - p minimum image, r2). Call ensure_neighbors()
  /// first when positions may have drifted.
  template <class Fn>
  void query_neighbors(const Vec3& p, double cutoff, Fn&& fn) const {
    nlist_.query(pos_, p, cutoff, std::forward<Fn>(fn));
  }

  /// The neighbor-list engine (rebuild/reuse stats for benches and tests).
  const NeighborList& neighbor_list() const { return nlist_; }

private:
  void wrap(Vec3& p) const { nlist_.wrap(p); }
  void reflect_walls(std::size_t i);
  /// The one routine that moves particle lanes (removal and merge_particles
  /// run it): kept particles carry every lane, their force included.
  void merge_lanes(const std::vector<std::uint32_t>& keep,
                   std::span<const std::span<const ParticleRecord>> runs,
                   std::vector<std::uint32_t>& slot);
  /// The staged pair pass. The lanes (xmp/sched/lanes.hpp) compute chunks
  /// of rows side by side; with a split-phase halo update in flight the
  /// rows touching a ghost wait for ExchangeHook::finish_refresh. Each row
  /// is scatter-replayed once every earlier row is done, so forces
  /// accumulate in canonical CSR row order — bitwise the same however the
  /// rows were scheduled.
  void pair_forces();
  /// Compute CSR rows [lo, hi), all interior or all deferred, into stage
  /// `parity` of lane `lane` at its cursor, in batches of whole rows of up
  /// to kPairBatch listed pairs: r2 for every listed pair of the batch,
  /// then the relative velocity, noise and one SIMD kernel call for its
  /// in-range lanes only. Records each row's (stage, start, count). With
  /// `replayed` (lane 0's replay cursor), a batch starting at *replayed is
  /// scatter-replayed at once and its stage space reused; otherwise the
  /// cursor advances past it. Returns the in-range pairs.
  std::size_t pair_rows(std::size_t lo, std::size_t hi, int lane, int parity,
                        std::size_t* replayed);
  /// Scatter-replay the staged rows [lo, hi) into frc_, in row order.
  void pair_scatter(std::size_t lo, std::size_t hi);
  /// Mark rows whose full neighbor run touches only owned particles
  /// (cached per neighbor-list version).
  void classify_rows();

  // analyze: no-checkpoint (constructor configuration, re-supplied by the driver)
  DpdParams prm_;
  // analyze: no-checkpoint (geometry is configuration, re-supplied by the driver)
  std::shared_ptr<Geometry> geom_;

  SoA3 pos_, vel_, frc_, frc_old_;
  std::vector<Species> species_;
  std::vector<char> frozen_;
  std::vector<std::uint32_t> gid_;
  std::vector<char> is_ghost_;
  std::uint32_t next_gid_ = 0;
  // analyze: no-checkpoint (borrowed runtime wiring, re-installed by the driver)
  ExchangeHook* exchange_ = nullptr;
  // analyze: no-checkpoint (modules checkpoint separately via the coordinator)
  std::vector<std::shared_ptr<ForceModule>> modules_;
  // analyze: no-checkpoint (callback configuration, re-established by the driver)
  BodyForceFn body_force_;

  // Verlet neighbor list (the hot-path pair source), patched in place by
  // add_particle/remove_particles; load_state only invalidates it so the
  // first post-restart step rebuilds from pos_.
  // analyze: no-checkpoint (derived cache, rebuilt on demand from pos_)
  NeighborList nlist_;

  // sigma = sqrt(2 kPairGamma kBT), the random pair-force amplitude
  // analyze: no-checkpoint (derived from prm_ in the constructor)
  double pair_sigma_;

  // reusable scratch: predicted velocities (integrator). Dead between
  // calls — never checkpointed.
  // analyze: no-checkpoint (integrator scratch, recomputed within every step)
  SoA3 v_pred_;

  // Which CSR rows touch only owned particles (cached per neighbor-list
  // version; read only while a split-phase halo update is in flight).
  // analyze: no-checkpoint (derived from the neighbor list, reclassified per list version)
  std::vector<char> row_interior_;
  // analyze: no-checkpoint (cache key: nlist_.version() at classification time)
  std::uint64_t row_class_version_ = ~std::uint64_t{0};

  // The pair pass's lanes, lane 0 the calling thread's (scratch, dead
  // between force passes). A lane's batch holds the compacted in-range
  // lanes of one batch of rows for la::simd::dpd_pair_forces; its stages
  // hold its computed rows' in-range partners j and kernel forces until
  // their scatter replay: row i at [row_start_[i], row_start_[i] +
  // row_count_[i]) of stage row_stage_[i] % 2 of lane row_stage_[i] / 2.
  // Lane 0 replays its batches as it computes them unless an earlier row is
  // unfinished, and uses stage 0 only; the helpers alternate stages by wave.
  struct PairBatch {
    std::vector<double> dx, dy, dz, r2, dvx, dvy, dvz, zeta;
    void grow(std::size_t m);
  };
  struct PairStage {
    std::vector<std::uint32_t> j;
    std::vector<double> fx, fy, fz;
    void grow(std::size_t lanes);
  };
  struct alignas(64) PairLane {
    PairBatch batch;
    PairStage stage[2];
    std::size_t at[2] = {0, 0};  ///< stage cursors
    std::size_t in_range = 0;    ///< in-range pairs its rows computed
    std::size_t rows = 0;        ///< non-empty rows it computed
  };
  // analyze: no-checkpoint (pair-pass scratch, dead between force passes)
  std::vector<PairLane> pair_lanes_;
  // analyze: no-checkpoint (pair-pass staging records, dead between force passes)
  std::vector<std::size_t> row_start_, row_count_;
  // analyze: no-checkpoint (pair-pass staging records, dead between force passes)
  std::vector<std::uint16_t> row_stage_;

  // remove_particles' scratch: the old-to-new index map, the kept slots,
  // the removed gids and merge_lanes' slot output.
  // analyze: no-checkpoint (removal scratch, dead between calls)
  std::vector<long> new_index_;
  // analyze: no-checkpoint (removal scratch, dead between calls)
  std::vector<std::uint32_t> keep_, dead_gids_, slot_;

  std::uint64_t step_ = 0;
  std::mt19937 rng_{0xD1CEu};
};

}  // namespace dpd
