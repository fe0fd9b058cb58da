#pragma once
// DistributedDpd — the domain-decomposition driver tying a per-rank
// DpdSystem to the exchange machinery (the ExchangeHook installed into the
// engine's step loop). Protocol per force evaluation:
//
//   refresh():  allreduce whether any rank's Verlet list is stale
//               (NeighborList::stale, the one home of the skin/2 rule). The
//               list was built at the last relayout's positions, so this
//               asks whether a particle has moved past skin/2 since then;
//               a ghost still holds its owner's previous position, which
//               the previous refresh already checked. While no list is
//               stale the halo fast path posts packed pos/vel lanes for the
//               planned boundary slots (HaloExchanger::begin_update) and
//               completes them at once, or — with DistOptions::overlap —
//               leaves them in flight until the engine's pair pass calls
//               finish_refresh(); otherwise the layout is rebuilt in
//               place: ownership migrates (MigrationExchanger, records only
//               for the particles that left), ghost records are shipped
//               (HaloExchanger::ship), and one gid merge of survivors,
//               arrivals and received ghosts lays out the local lanes and
//               yields the plans (HaloExchanger::relayout). The relayout
//               invalidates the list, and the force pass right after it
//               rebuilds the list at the relayout's positions (after
//               distribute(), the first refresh does, before anything has
//               moved). distribute(), the forced rebuild after a restart
//               load and rebalance() all take this path.
//
// Equivalence guarantee (pinned in tests/dpd_exchange_test.cpp and
// docs/PERF.md): every cross-boundary pair is computed on both ranks
// (compute-twice, ghost rows discarded), local arrays are kept sorted by gid
// with a complete rc+skin halo, and the engine's canonical CSR pair order
// plus gid-keyed pair RNG then reproduce the single-rank per-particle
// floating-point accumulation order exactly — N-rank trajectories are
// bitwise equal to the single-rank run, independent of rebuild cadence.

#include <chrono>
#include <cstdint>
#include <vector>

#include "dpd/exchange/decomposition.hpp"
#include "dpd/exchange/exchangers.hpp"
#include "dpd/platelets.hpp"
#include "dpd/system.hpp"
#include "xmp/comm.hpp"

namespace dpd::exchange {

struct DistOptions {
  GridDims dims{};  ///< process grid; default (count()==0) auto-factors
  /// Overlap halo communication with interior pair computation: the engine
  /// computes interior neighbor-list rows while the fast-path lanes fly,
  /// completing the exchange only before the boundary rows. Off, refresh()
  /// completes the lanes before returning. Bitwise-neutral either way (see
  /// docs/PERF.md "Overlapped halos").
  bool overlap = false;
  /// When > 0, every Nth refresh measures owned-count imbalance and — above
  /// 1.2 max/mean — shifts the decomposition's cut planes toward equal
  /// counts (Decomposition::rebalance) followed by a full rebuild.
  /// Trajectory-neutral, like any forced rebuild.
  int rebalance_every = 0;
};

/// Bitwise trajectory digest (FNV-1a over gid-sorted owned gid/pos/vel) of
/// one system — the single-rank side of the equivalence gate.
std::uint64_t trajectory_digest(const DpdSystem& sys);

class DistributedDpd final : public ExchangeHook {
public:
  /// Installs itself as the system's exchange hook and enables the ghost
  /// pair filter; the ghost shell is DpdSystem::force_reach() + skin wide.
  /// The system must outlive this driver.
  DistributedDpd(const xmp::Comm& comm, DpdSystem& sys, DistOptions opt = {});
  ~DistributedDpd() override;

  /// Partition a *replicated* initial population: every rank must hold the
  /// identical full particle set (same deterministic setup code); each
  /// keeps what falls inside its subdomain and builds the first halo.
  /// Collective; call once before stepping.
  void distribute();

  void refresh(DpdSystem& sys) override;
  bool overlap_pending() const override { return overlap_pending_; }
  void finish_refresh(DpdSystem& sys) override;

  const Decomposition& decomposition() const { return decomp_; }
  /// The halo protocol object, for its plans (tests/diagnostics).
  const HaloExchanger& halo() const { return halo_; }
  /// Full rebuilds taken by refresh() so far, rebalances included.
  std::uint64_t rebuilds() const { return rebuilds_; }

  /// All owned records of the run, gathered to `root` and sorted by gid
  /// (empty on other ranks). Collective.
  std::vector<ParticleRecord> gather(int root = 0) const;
  /// trajectory_digest of the whole distributed population — equal on every
  /// rank, and equal to the single-rank digest. Collective.
  std::uint64_t global_digest() const;

  // --- collective diagnostics over owned particles ---
  double kinetic_temperature() const;
  Vec3 total_momentum() const;
  std::int64_t global_count() const;

  /// Replicate owner-decided platelet state transitions to every rank's
  /// slot table (call right after model.update(sys)); freezes local copies
  /// of Bound platelets. Collective.
  void sync_platelets(PlateletModel& model);

  /// Checkpoint the driver: decomposition layout + halo width (validated on
  /// load) and the current cut planes (restored, so a post-rebalance restart
  /// migrates under the decomposition that actually owns the particles) —
  /// plans and the Verlet list are rebuilt, so load forces a full
  /// rebuild at the next refresh, which is trajectory-neutral (see
  /// docs/PERF.md). The per-rank particle state lives in
  /// DpdSystem::save_state.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  /// Measure owned-count imbalance (max/mean over ranks, allreduced) and,
  /// above 1.2, move the decomposition's cut planes toward equal per-slab
  /// counts and migrate ownership to the new layout. Collective; returns
  /// true when the layout changed (the halo and plans are then freshly
  /// rebuilt). refresh() calls it every rebalance_every refreshes, ahead of
  /// the force pass that refills the migrated particles' zero forces.
  bool rebalance();
  /// Migrate, then rebuild_halo: the phases dpd.exchange.migrate, .halo
  /// and .relayout nested under dpd.exchange.rebuild.
  void full_rebuild(DpdSystem& sys);
  /// Ship ghosts for the owned set migrate_ holds and merge the new layout.
  void rebuild_halo(DpdSystem& sys);

  // analyze: no-checkpoint (rank-affine communicator handle, re-supplied on restart)
  xmp::Comm comm_;
  // analyze: no-checkpoint (borrowed engine; checkpoints separately)
  DpdSystem& sys_;
  DistOptions opt_;  ///< process grid; serialised for restart validation
  Decomposition decomp_;  ///< geometry from opt_; moved cut planes serialised
  // analyze: no-checkpoint (per-rebuild owned set, refilled by every rebuild)
  MigrationExchanger migrate_;
  // analyze: no-checkpoint (plans rebuilt by the forced post-load rebuild)
  HaloExchanger halo_;
  bool distributed_ = false;  ///< serialised: has distribute()/load run?
  // analyze: no-checkpoint (load_state forces the rebuild that repopulates it)
  bool rebuild_pending_ = false;
  // analyze: no-checkpoint (in-flight overlap state never spans a checkpoint)
  bool overlap_pending_ = false;
  // analyze: no-checkpoint (telemetry timestamp for dpd.halo.overlap_us)
  std::chrono::steady_clock::time_point overlap_t0_{};
  // analyze: no-checkpoint (replicated cadence counter; restart restarts it identically everywhere)
  std::uint64_t refresh_count_ = 0;
  // analyze: no-checkpoint (diagnostic counter of this process's rebuilds)
  std::uint64_t rebuilds_ = 0;
};

}  // namespace dpd::exchange
