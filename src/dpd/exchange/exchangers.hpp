#pragma once
// The two exchangers of the decomposition driver (Mirheo-style
// exchanger/packer split):
//
//   MigrationExchanger — transfers *ownership*: after a rebuild trigger it
//     classifies the owned particles straight from the SoA position lanes,
//     ships a record only for each particle that left the subdomain, and
//     receives the arrivals. The survivors stay where they are.
//   HaloExchanger — builds and refreshes *ghosts*: owned particles within
//     halo_width of a neighbour subdomain are replicated there. A rebuild
//     ships whole ParticleRecords (ship()), then lays out survivors,
//     arrivals and received ghosts in gid order with one merge and reads
//     the index plans off the new slots (relayout()); every force pass in
//     between ships only packed pos/vel lanes for the planned slots, as a
//     split-phase begin_update()/finish_update() pair.
//
// All traffic is tagged point-to-point between decomposition neighbours
// (kTag*), counted in telemetry (dpd.halo.particles / dpd.halo.bytes /
// dpd.migrate.count) and classifiable in a CommMatrix via comm_tag_classes().

#include <cstdint>
#include <span>
#include <vector>

#include "dpd/exchange/decomposition.hpp"
#include "dpd/system.hpp"
#include "telemetry/comm_matrix.hpp"
#include "xmp/comm.hpp"

namespace dpd::exchange {

inline constexpr int kTagMigrate = 7101;
inline constexpr int kTagHaloBuild = 7102;
inline constexpr int kTagHaloUpdate = 7103;

/// Tag classes attributing exchange traffic in a telemetry::CommMatrix.
telemetry::TagClasses comm_tag_classes();

class MigrationExchanger {
public:
  MigrationExchanger(const xmp::Comm& comm, const Decomposition& decomp)
      : comm_(comm), decomp_(&decomp) {}

  /// Re-home the owned particles of `sys` by current position: the ones
  /// still inside this rank's subdomain stay (kept()), the others are sent
  /// as records to their new owner, and the records arriving here are
  /// collected (arrivals()). Collective over the neighbour set. Throws when
  /// a particle skipped past the neighbour shell (moved further than
  /// halo_width since the last rebuild — the decomposition is too fine for
  /// the timestep).
  void exchange(const DpdSystem& sys);
  /// The replicated initial partition: every rank holds the whole
  /// population and keeps what it owns. No traffic, no arrivals.
  void claim(const DpdSystem& sys);

  /// Ascending local slots of the owned particles that stay.
  const std::vector<std::uint32_t>& kept() const { return keep_; }
  /// Records of the particles that migrated in, sorted by gid.
  const std::vector<ParticleRecord>& arrivals() const { return arrivals_; }

private:
  xmp::Comm comm_;
  const Decomposition* decomp_;
  std::vector<std::uint32_t> keep_;
  std::vector<ParticleRecord> arrivals_;
  // per-rebuild scratch, kept warm: outbox index of each rank (-1 when not
  // a neighbour), one outbox per neighbour, one received batch
  std::vector<int> box_of_;
  std::vector<std::vector<ParticleRecord>> outbox_;
  std::vector<ParticleRecord> in_;
};

class HaloExchanger {
public:
  HaloExchanger(const xmp::Comm& comm, const Decomposition& decomp)
      : comm_(comm), decomp_(&decomp) {}

  /// Rebuild, phase 1: the owned set is the particles at slots `keep` of
  /// `sys` and the records `arrivals`, walked together in gid order. Ships
  /// a copy (flagged ghost) of every owned particle within halo_width of a
  /// neighbour's subdomain to that neighbour, so each batch goes out
  /// gid-sorted, and receives the neighbours' batches. Collective over the
  /// neighbour set.
  void ship(const DpdSystem& sys, const std::vector<std::uint32_t>& keep,
            const std::vector<ParticleRecord>& arrivals);
  /// Rebuild, phase 2: lay out `keep`, `arrivals` and the received ghosts
  /// in gid order with one DpdSystem::merge_particles, and read the
  /// send/recv slot plans that the fast path replays off the new slots.
  /// Takes the same `keep` and `arrivals` as the ship() before it.
  void relayout(DpdSystem& sys, const std::vector<std::uint32_t>& keep,
                const std::vector<ParticleRecord>& arrivals);

  /// Fast path between rebuilds, split in two phases so the caller can
  /// overlap it with owned-only work: begin_update packs the current pos/vel
  /// of every neighbour's planned boundary slots and posts them as
  /// nonblocking isend/irecv on kTagHaloUpdate, returning while the
  /// messages are in flight; finish_update completes the handles and
  /// scatters the fresh ghost pos/vel into the planned ghost slots. Exactly
  /// one finish_update must follow every begin_update (checked xmp builds
  /// flag dropped handles), and the system's local layout must be unchanged
  /// since the last relayout(). Ghost slots hold stale positions in between.
  void begin_update(DpdSystem& sys);
  void finish_update(DpdSystem& sys);

  /// Ghost slots per neighbour rank, in plan order (tests/diagnostics).
  const std::vector<std::vector<std::uint32_t>>& recv_plan() const { return recv_; }
  const std::vector<std::vector<std::uint32_t>>& send_plan() const { return send_; }

private:
  xmp::Comm comm_;
  const Decomposition* decomp_;
  // Per neighbour (parallel to decomp_->neighbors(rank)): local slots whose
  // pos/vel we ship there / local ghost slots filled from there.
  std::vector<std::vector<std::uint32_t>> send_, recv_;
  // hoisted per-call scratch: the fast path runs every force pass and must
  // not allocate once the plans have warmed these up
  std::vector<double> pack_buf_, recv_buf_;
  // in-flight handles between begin_update and finish_update
  std::vector<xmp::Pending> send_pending_, recv_pending_;
  // per-rebuild scratch, kept warm between ship() and relayout() and across
  // rebuilds: each neighbour's subdomain, the outgoing ghost batches and
  // the merge inputs they came from (numbered as merge_particles numbers
  // its inputs: `keep` first, then `arrivals`), the received batches, the
  // merge runs and the slot of every merge input
  std::vector<Subdomain> nbr_box_;
  std::vector<std::vector<ParticleRecord>> out_, in_;
  std::vector<std::vector<std::uint32_t>> shipped_;
  std::vector<std::span<const ParticleRecord>> runs_;
  std::vector<std::uint32_t> slot_;
};

}  // namespace dpd::exchange
