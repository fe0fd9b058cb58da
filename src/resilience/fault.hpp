#pragma once
// Deterministic fault injection. At BG/P production scale the mean time
// between failures is shorter than a simulation, so robustness has to be a
// tested property, not a hope: a FaultPlan scripts exactly which rank fails
// at which step (process faults) and which checkpoint streams are corrupted
// or dropped on write (storage faults), so resilience tests replay the same
// failure every run.
//
// Process faults hook into the xmp step loop: every rank calls
// plan.check(comm, step) once per step, and the scheduled victim throws
// InjectedFault there. By xmp semantics an uncaught InjectedFault aborts the
// whole run (every blocked rank wakes with AbortedError); a failover-aware
// harness instead catches it and reports the rank dead through
// coupling::ReplicaEnsemble::exchange_health (the replica model in
// bench/replica/, exercised by resilience_test's Failover suite).
//
// Storage faults hook into CheckpointCoordinator::save via set_fault_plan:
// the scheduled save on the scheduled rank is either corrupted (one payload
// byte flipped after framing, so read_frame's CRC check must catch it) or
// dropped (the stream file is never written).

#include <cstdint>
#include <mutex>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "xmp/comm.hpp"

namespace resilience {

/// Thrown on the victim rank at its scheduled kill step.
struct InjectedFault : std::runtime_error {
  InjectedFault(int rank_, std::uint64_t step_)
      : std::runtime_error("resilience: injected fault on rank " + std::to_string(rank_) +
                           " at step " + std::to_string(step_)),
        rank(rank_),
        step(step_) {}
  int rank;
  std::uint64_t step;
};

class FaultPlan {
public:
  enum class StreamFault : std::uint8_t { None, Corrupt, Drop };

  /// Schedule `world_rank` to throw InjectedFault at `step`.
  FaultPlan& kill_rank(int world_rank, std::uint64_t step);

  /// Schedule the `at_save`-th checkpoint save (0-based, counted per rank)
  /// on `world_rank` to be written corrupted / not written at all.
  FaultPlan& corrupt_stream(int world_rank, int at_save = 0);
  FaultPlan& drop_stream(int world_rank, int at_save = 0);

  /// Step hook: call once per step on every rank. Throws InjectedFault when
  /// this (rank, step) is scheduled. Thread-safe (read-only after setup).
  void check(int world_rank, std::uint64_t step) const;
  void check(const xmp::Comm& comm, std::uint64_t step) const {
    check(comm.world_rank(), step);
  }

  /// Storage hook used by CheckpointCoordinator: advances this rank's save
  /// counter and reports what to do with the stream being written.
  StreamFault on_checkpoint_write(int world_rank);

private:
  struct Kill {
    int rank;
    std::uint64_t step;
  };
  struct Stream {
    int rank;
    int at_save;
    StreamFault kind;
  };

  std::vector<Kill> kills_;
  std::vector<Stream> streams_;
  std::mutex mu_;                 ///< guards saves_seen_ (ranks save concurrently)
  std::map<int, int> saves_seen_;
};

}  // namespace resilience
