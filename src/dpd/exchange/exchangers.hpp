#pragma once
// The two exchangers of the decomposition driver (Mirheo-style
// exchanger/packer split):
//
//   MigrationExchanger — transfers *ownership*: after a rebuild trigger,
//     records whose position left the subdomain travel to the neighbour
//     rank that now contains them.
//   HaloExchanger — builds and refreshes *ghosts*: owned particles within
//     halo_width of a neighbour subdomain are replicated there. A full
//     build() ships whole ParticleRecords and plans the index lists; every
//     force pass in between ships only packed pos/vel lanes for the planned
//     slots, as a split-phase begin_update()/finish_update() pair.
//
// All traffic is tagged point-to-point between decomposition neighbours
// (kTag*), counted in telemetry (dpd.halo.particles / dpd.halo.bytes /
// dpd.migrate.count) and classifiable in a CommMatrix via comm_tag_classes().

#include <cstdint>
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

  /// Re-home `owned` by current position: records leaving this rank's
  /// subdomain are sent to their new owner, arrivals merged in; returns the
  /// post-migration owned set sorted by gid. Collective over the neighbour
  /// set. Throws when a particle skipped past the neighbour shell (moved
  /// further than halo_width since the last rebuild — the decomposition is
  /// too fine for the timestep).
  std::vector<ParticleRecord> exchange(std::vector<ParticleRecord> owned) const;

private:
  xmp::Comm comm_;
  const Decomposition* decomp_;
};

class HaloExchanger {
public:
  HaloExchanger(const xmp::Comm& comm, const Decomposition& decomp)
      : comm_(comm), decomp_(&decomp) {}

  /// Full halo rebuild from the gid-sorted owned set: ships copies of
  /// boundary particles to every neighbour whose subdomain they are within
  /// halo_width of, returns owned + received ghosts sorted by gid, and
  /// records the send/recv slot plans that the fast path replays.
  std::vector<ParticleRecord> build(const std::vector<ParticleRecord>& owned);

  /// Fast path between rebuilds, split in two phases so the caller can
  /// overlap it with owned-only work: begin_update packs the current pos/vel
  /// of every neighbour's planned boundary slots and posts them as
  /// nonblocking isend/irecv on kTagHaloUpdate, returning while the
  /// messages are in flight; finish_update completes the handles and
  /// scatters the fresh ghost pos/vel into the planned ghost slots. Exactly
  /// one finish_update must follow every begin_update (checked xmp builds
  /// flag dropped handles), and the system's local layout must be unchanged
  /// since the last build(). Ghost slots hold stale positions in between.
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
};

}  // namespace dpd::exchange
