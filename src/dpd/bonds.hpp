#pragma once
// Bonded interactions for coarse-grained blood cells: harmonic springs
// between beads, with second-neighbour ("bending") springs stiffening the
// contour. make_rbc_ring() builds the paper's coarse RBC representation:
// a closed bead-spring ring (the 2D cross-section of the spectrin-network
// membrane models used in DPD blood simulations).
//
// Bonds are keyed by *global* particle IDs, so a bond list is invariant to
// index compaction and to spatial decomposition: the same replicated list
// works on every rank, each rank resolving gids to local slots and applying
// forces to the endpoints it owns (ghost endpoints receive theirs from
// their owning rank, which holds the same bond).

#include <cstdint>
#include <vector>

#include "dpd/system.hpp"

namespace dpd {

struct Bond {
  std::uint32_t i = 0, j = 0;  ///< global particle IDs of the endpoints
  double r0 = 0.5;             ///< rest length
  double k = 50.0;             ///< spring stiffness
};

class BondSet final : public ForceModule {
public:
  void add_bond(std::uint32_t gid_i, std::uint32_t gid_j, double r0, double k) {
    bonds_.push_back({gid_i, gid_j, r0, k});
  }
  std::size_t size() const { return bonds_.size(); }
  const std::vector<Bond>& bonds() const { return bonds_; }

  void add_forces(DpdSystem& sys) override;
  /// Drop bonds whose partner was removed from the system.
  void on_remove_gids(const std::vector<std::uint32_t>& gids) override;

  /// Max |r - r0| / r0 over bonds with both endpoints resolvable locally
  /// (all of them on a single rank; max-reduce across ranks otherwise).
  double max_strain(const DpdSystem& sys) const;

  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  std::vector<Bond> bonds_;
};

struct RbcRingParams {
  Vec3 center{};
  double radius = 2.0;
  int beads = 16;
  double k_spring = 100.0;  ///< neighbour spring stiffness
  double k_bend = 25.0;     ///< second-neighbour (bending) stiffness
};

/// Insert an RBC ring, in the xz plane through `center`, into the system
/// and register its bonds on `bonds`.
/// Returns the bead indices.
std::vector<std::size_t> make_rbc_ring(DpdSystem& sys, BondSet& bonds,
                                       const RbcRingParams& p);

}  // namespace dpd
