#pragma once
// The record-based rebuild of the distributed DPD layout (test-only library
// `dpd_exchange_reference`): copy every owned particle into a
// ParticleRecord, migrate by position, sort, ship the halo records, merge
// owned + ghost records with a second sort, and resolve the send/recv plans
// by binary search over the merged gids. dpd_exchange_test replays it after
// every in-place rebuild of DistributedDpd and compares the two layouts
// bitwise. It speaks the same wire protocol (kTagMigrate, kTagHaloBuild)
// and is collective over the decomposition neighbours in the same way, so
// every rank must call it in lockstep.

#include <cstdint>
#include <vector>

#include "dpd/exchange/decomposition.hpp"
#include "dpd/system.hpp"
#include "xmp/comm.hpp"

namespace dpd::exchange::reference {

/// A local layout as records in slot order, with its halo plans (per
/// neighbour, parallel to Decomposition::neighbors(rank)).
struct Layout {
  std::vector<ParticleRecord> particles;
  std::vector<std::vector<std::uint32_t>> send, recv;
};

/// particle_record() of every owned (non-ghost) particle, in slot order.
std::vector<ParticleRecord> owned_records(const DpdSystem& sys);

/// The layout distribute() builds from a replicated population: the
/// records this rank owns by position, plus their halo.
Layout distribute(const xmp::Comm& comm, const Decomposition& d,
                  const std::vector<ParticleRecord>& everyone);

/// The layout a full rebuild builds from the owned records captured
/// before it: migrate, then rebuild the halo.
Layout rebuild(const xmp::Comm& comm, const Decomposition& d, std::vector<ParticleRecord> owned);

}  // namespace dpd::exchange::reference
