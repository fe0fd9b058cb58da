#pragma once
// analyze: unreached-ok (ROADMAP item 10: the two-group run builds its MCI here)
// Multilevel Communicating Interface (paper Sec. 3.1/3.2) over the xmp
// runtime:
//   L1 = World
//   L2 = topology groups (racks / machine partitions)
//   L3 = task groups (one per solver instance / patch), derived per task
//   L4 = interface groups: the subset of an L3 whose partitions touch a
//        given interface
// plus the three-step inter-patch exchange (gather on the L4 root ->
// root-to-root p2p over World -> scatter from the peer L4 root) and the
// geometric discovery of which continuum task owns which interface points
// (Sec. 3.3 preprocessing).

#include <functional>
#include <vector>

#include "xmp/comm.hpp"

namespace coupling {

struct MciConfig {
  /// rack id per world rank (topology-oriented split -> L2).
  std::vector<int> rack_of;
  /// task id per world rank (task-oriented split -> L3). Tasks usually nest
  /// inside racks but are not required to.
  std::vector<int> task_of;
};

struct Mci {
  xmp::Comm world;
  xmp::Comm l2;  ///< all ranks in my rack
  xmp::Comm l3;  ///< all ranks in my task
  int rack = -1;
  int task = -1;
};

/// Collective over `world`.
Mci build_mci(const xmp::Comm& world, const MciConfig& cfg);

/// Derive an L4 subgroup of `l3` (collective over l3): ranks passing
/// member=true join. Returns an invalid comm on non-members.
xmp::Comm derive_l4(const xmp::Comm& l3, bool member);

/// One side of an interface: moves values for interface samples between two
/// L4 groups with the 3-step pattern. Both sides agree on the total sample
/// count and a tag; each L4 member owns a subset of sample indices.
class InterfaceChannel {
public:
  /// Collective over the L4 group. `my_samples`: global sample indices owned
  /// by this rank (the root learns everyone's via gather). `peer_root_world`:
  /// world rank of the peer group's root.
  InterfaceChannel(xmp::Comm world, xmp::Comm l4, int peer_root_world,
                   std::size_t total_samples, std::vector<std::size_t> my_samples, int tag);

  /// Step 1+2: gather local contributions to the root, which assembles the
  /// full sample vector and sends it to the peer root.
  void send(const std::vector<double>& my_values) const;

  /// Step 2+3: root receives the peer's full vector and scatters each rank
  /// its owned samples. Returns values aligned with my_samples.
  std::vector<double> recv() const;

  const std::vector<std::size_t>& my_samples() const { return my_samples_; }
  bool is_root() const { return l4_.valid() && l4_.rank() == 0; }

private:
  xmp::Comm world_, l4_;
  int peer_root_world_;
  std::size_t total_;
  std::vector<std::size_t> my_samples_;
  std::vector<std::vector<std::size_t>> all_samples_;  // root only: per-rank indices
  int tag_;
};

/// Geometric L4 discovery (paper Sec. 3.3): the atomistic task's root sends
/// interface sample coordinates to every continuum task's root; each
/// continuum rank claims the samples inside its partition; claims are
/// reported back. Collective over `world`.
///
/// Inputs:
///  * mci            — this rank's communicators,
///  * atomistic_task — the task id of the atomistic solver,
///  * samples        — 3 doubles (x, y, z) per interface sample, valid on the
///                     atomistic task's L3 root (others may pass empty),
///  * owns           — predicate: does THIS rank's partition own a point?
///                     (evaluated on continuum ranks only)
///
/// Output per rank: the sample indices claimed by this rank (continuum
/// ranks), or, on atomistic ranks, the indices grouped per continuum task
/// (by task id) on the L3 root.
struct DiscoveryResult {
  /// continuum ranks: samples this rank owns
  std::vector<std::size_t> my_claims;
  /// atomistic L3 root: per-task claimed indices (task id -> samples)
  std::vector<std::pair<int, std::vector<std::size_t>>> task_claims;
};

DiscoveryResult discover_interface_owners(
    const Mci& mci, int atomistic_task, const std::vector<double>& samples,
    const std::function<bool(double, double, double)>& owns);

}  // namespace coupling
