#pragma once
// Checked-mode verifier (see check.hpp for the user-facing contract). One
// Checker exists per checked run, owned by the RunState. Rank fibers call
// the hooks from comm.cpp; a watchdog thread polls the wait registry for
// deadlock cycles and stalls. Internal header.

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xmp/check.hpp"
#include "xmp/detail.hpp"

namespace xmp::detail {

/// What a blocked rank is waiting on. One slot per world rank, each behind
/// its own mutex so ranks never contend with each other — only with
/// the (rare) watchdog poll.
struct BlockedOp {
  enum class Kind : std::uint8_t { None, Recv, Collective };
  Kind kind = Kind::None;
  std::shared_ptr<Group> grp;  // keeps the comm alive for dumps / mailbox scans
  int local_rank = -1;         // this rank within grp
  int src_world = kAnySource;  // Recv: awaited world rank (kAnySource = any)
  int tag = kAnyTag;           // Recv
  CollDesc desc{};             // Collective
  std::uint64_t slot_gen = 0;  // Collective: slot generation when parked
  std::size_t bytes = 0;       // payload bytes contributed (collectives)
  std::uint64_t wait_gen = 0;  // bumped on every (re)registration
  std::chrono::steady_clock::time_point since{};
};

class Checker {
public:
  Checker(RunState* rs, CheckOptions opts);
  ~Checker();

  // -- rank affinity ---------------------------------------------------------
  /// Throws CheckError when the calling execution context (per
  /// sched::current_rank) is not `local_rank`'s owner.
  void check_affinity(const Group& g, int local_rank, const char* op) const;

  // -- collective matching ---------------------------------------------------
  /// Called by the last arriver of a collective slot with every rank's
  /// descriptor. On mismatch records the diagnosis, aborts the run and
  /// throws CheckError.
  void verify_collective(Group& g, const std::vector<CollDesc>& descs, std::uint64_t seq);

  // -- wait registry ---------------------------------------------------------
  void block_recv(Group& g, int me_local, int src_local, int tag);
  void block_collective(Group& g, int me_local, const CollDesc& desc, std::uint64_t slot_gen,
                        std::size_t bytes);
  void unblock(const Group& g, int me_local);

  // -- nonblocking-p2p handle hygiene ----------------------------------------
  /// Registers a live Pending handle; returns the registry ticket that
  /// complete_pending retires. peer_local may be kAnySource for receives.
  std::uint64_t register_pending(const Group& g, int me_local, int peer_local, int tag,
                                 bool is_send);
  void complete_pending(std::uint64_t id);
  /// Throws CheckError listing the Pending handles never completed by
  /// wait()/test(). Call after every rank finished, on the clean-run path.
  void report_leaked_pending();

  // -- watchdog / run end ----------------------------------------------------
  void start_watchdog();
  void stop_watchdog();
  /// Scans every communicator's mailboxes after a clean run and throws
  /// CheckError listing any unreceived message. Must be called after every
  /// rank finished.
  void report_leftovers();
  /// Retains the group so end-of-run leftover reporting can reach it even
  /// after every Comm handle died.
  void retain_group(std::shared_ptr<Group> g);
  /// Drops the retained groups. Groups own the RunState, which owns this
  /// Checker, so the retention is a deliberate cycle that xmp::run must
  /// break on every exit path or the whole run state leaks.
  void release_groups();

private:
  struct Slot {
    mutable std::mutex mu;
    BlockedOp op;
  };

  int world_of(const Group& g, int local) const {
    return g.world_ranks[static_cast<std::size_t>(local)];
  }
  BlockedOp snapshot_slot(int world) const;
  void watchdog_main();
  void poll_once();
  /// Declares a checked-mode failure: records `msg`, aborts the run.
  void declare(const std::string& msg);
  std::string describe_blocked(int world, const BlockedOp& op,
                               std::chrono::steady_clock::time_point now) const;
  std::string dump_all_blocked(std::chrono::steady_clock::time_point now) const;

  RunState* rs_;
  CheckOptions opts_;
  std::vector<Slot> slots_;  // indexed by world rank

  std::mutex groups_mu_;
  std::vector<std::shared_ptr<Group>> retained_;

  // live Pending handles, by registry ticket -> diagnostic description
  std::mutex pend_mu_;
  std::uint64_t next_pending_ = 1;
  std::map<std::uint64_t, std::string> pending_;

  // candidate deadlock cycle awaiting confirmation on the next poll
  std::vector<std::pair<int, std::uint64_t>> candidate_;  // (world rank, wait_gen)

  std::thread watchdog_;
  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  bool declared_ = false;
};

}  // namespace xmp::detail
