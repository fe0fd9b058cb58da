#pragma once
// Replica ensembles (paper Sec. 3.3, Fig. 6): DPD-LAMMPS can replicate the
// atomistic domain and solve an array of identical problems with different
// random forcing; averaging the replicas improves the statistics by
// sqrt(N_A). To keep the continuum side unaware of the replication, the
// atomistic L3 is split into N_A replica groups L3_j; the L4 group of L3_1
// is the *master* that owns the single p2p channel to the continuum, and
// broadcasts/gathers interface data to/from the slave replicas.

#include <vector>

#include "xmp/comm.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace coupling {

class ReplicaEnsemble {
public:
  /// Collective over the atomistic L3. Ranks are divided into n_replicas
  /// contiguous groups (sizes as equal as possible).
  ReplicaEnsemble(const xmp::Comm& l3, int n_replicas);

  int num_replicas() const { return n_; }
  int replica_id() const { return rid_; }
  bool is_master_replica() const { return rid_ == 0; }
  /// This rank's replica communicator (every rank belongs to exactly one).
  const xmp::Comm& replica_comm() const { return rep_; }
  /// True on the rank that talks to the continuum side (master replica root).
  bool is_ensemble_root() const { return rid_ == 0 && rep_.rank() == 0; }

  /// Fan interface data out to every replica: `data` significant on the
  /// ensemble root; every rank returns a copy (root-to-root bcast over the
  /// roots group, then intra-replica bcast).
  std::vector<double> distribute(std::vector<double> data) const;

  /// Average equal-length per-replica vectors: each replica root contributes
  /// `mine`; every rank returns the ensemble average (gathered on the
  /// ensemble root, averaged, redistributed).
  std::vector<double> gather_average(const std::vector<double>& mine) const;

  /// Post-step failover protocol: a collective health exchange over the
  /// *current* L3 in which every rank reports whether it is healthy (a rank
  /// that caught an injected/real fault reports false, then exits after this
  /// call). Any replica containing a dead rank is retired whole; the
  /// survivors are renumbered in old-id order, so losing the master promotes
  /// the lowest surviving replica — the continuum side never notices because
  /// the new master root re-owns the p2p channel. Returns true if this rank
  /// survives (its communicators were rebuilt over the shrunken ensemble),
  /// false if its replica was retired (all its comms are invalidated; the
  /// caller must leave the step loop). Throws if every replica failed.
  bool exchange_health(bool healthy);

  /// Replicas retired by exchange_health over the ensemble's lifetime.
  int replicas_lost() const { return lost_; }

  /// Checkpoint the ensemble bookkeeping; load verifies the restart
  /// ensemble shape (replica count, this rank's replica id) matches.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  // analyze: no-checkpoint (communicators are process topology, never serialised)
  xmp::Comm l3_;
  // analyze: no-checkpoint (communicators are process topology, never serialised)
  xmp::Comm rep_;    ///< my replica group
  // analyze: no-checkpoint (communicators are process topology, never serialised)
  xmp::Comm roots_;  ///< all replica roots (invalid on non-root ranks)
  int n_ = 1;
  int rid_ = 0;
  int lost_ = 0;
};

}  // namespace coupling
