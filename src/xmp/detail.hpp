#pragma once
// Internal machinery behind xmp::Comm — mailboxes, the per-run shared state
// and the communicator groups. Split out of comm.cpp so the checked-mode
// verifier (checker.cpp) can inspect the same structures. Not installed as
// user API: include "xmp/comm.hpp" instead.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "xmp/comm.hpp"

namespace xmp::detail {

class Checker;
struct Fiber;

/// Wait channel: the runtime's blocking points park here. A waiting rank
/// registers its fiber in the waiter list and yields into its scheduler
/// (sched/fiber.hpp), making every blocking point a yield point. Both wait()
/// and notify_all() require the mutex guarding the surrounding predicate to
/// be held, because both touch the waiter list.
struct WaitCv {
  std::vector<Fiber*> waiters;

  /// One park; returns after any wake. Callers loop on their predicate.
  /// Throws std::logic_error when called outside any rank (see
  /// require_rank_fiber in sched/fiber.hpp).
  void wait(std::unique_lock<std::mutex>& lk);
  void notify_all();
};

struct Message {
  int src;  // group-local source rank
  int tag;
  std::vector<std::uint8_t> data;
};

struct Mailbox {
  std::mutex mu;
  WaitCv cv;
  std::deque<Message> q;
};

/// State shared by every communicator of one run(): abort flag, trace sink,
/// the optional checker, and a registry used to wake all blocked ranks on
/// abort.
struct RunState {
  std::atomic<bool> aborted{false};
  int world_size = 0;
  /// Set by run() before any rank starts and never replaced, so ranks read
  /// it without a lock; trace_mu serializes the calls into the sink.
  TraceSink trace;
  std::mutex trace_mu;

  std::mutex reg_mu;
  std::vector<std::weak_ptr<Group>> groups;
  std::atomic<int> next_group_id{0};

  /// Non-null when this run executes in checked mode (CheckOptions.enabled).
  /// Owned here so every Group hook can reach it.
  std::unique_ptr<Checker> checker;
  /// Root-cause diagnosis recorded by the checker (watchdog or collective
  /// verifier); surfaced by run() in preference to secondary AbortedErrors.
  std::mutex check_err_mu;
  std::exception_ptr check_error;

  void record_check_error(std::exception_ptr e);
  void abort_all();
};

struct Group : std::enable_shared_from_this<Group> {
  std::shared_ptr<RunState> rs;
  int id = 0;                    // 0 is the world communicator
  std::vector<int> world_ranks;  // local rank -> world rank
  std::vector<std::unique_ptr<Mailbox>> boxes;

  // one-shot-combine collective slot
  std::mutex cmu;
  WaitCv ccv;
  int arrived = 0;
  std::uint64_t gen = 0;
  std::vector<std::pair<const void*, std::size_t>> inputs;
  std::vector<CollDesc> descs;  // checked mode: per-rank op descriptors
  std::shared_ptr<void> result;

  Group(std::shared_ptr<RunState> rs_, int id_, std::vector<int> wr);

  int size() const { return static_cast<int>(world_ranks.size()); }
  /// Diagnostic name, e.g. "world" or "comm#3{1,3,5}".
  std::string name() const;
  /// Group-local rank of a world rank, or -1.
  int local_rank_of_world(int world) const;

  void check_abort() const {
    if (rs->aborted.load(std::memory_order_relaxed)) throw AbortedError{};
  }

  void wake_all();

  using CombineFn =
      std::function<std::shared_ptr<void>(const std::vector<std::pair<const void*, std::size_t>>&)>;

  /// All ranks enter; the last to arrive runs `combine` exactly once over
  /// every rank's (ptr, bytes) input; every rank leaves with the shared
  /// result. Inputs point into callers' stacks, which stay alive because
  /// those callers are blocked here until the generation advances. In
  /// checked mode the last arriver first verifies that every rank's CollDesc
  /// describes the same operation.
  std::shared_ptr<void> collective(int rank, const void* ptr, std::size_t bytes,
                                   const CollDesc& desc, const CombineFn& combine);

  void emit_trace(int src, int dst, std::size_t bytes, int tag, TraceKind kind);
  void send(int src, int dst, int tag, const void* data, std::size_t bytes);
  std::vector<std::uint8_t> recv(int me, int src, int tag, int* out_src, int* out_tag);
  /// Move the first message queued for rank `me` that matches `src` and
  /// `tag` (kAnySource / kAnyTag match anything) into `out` and return true.
  /// Non-blocking, return false when none is queued. Blocking, park on the
  /// mailbox until one arrives (registered with the checker as a blocked
  /// recv); throws AbortedError once the run aborts.
  bool claim(int me, int src, int tag, bool block, Message& out);
};

/// State behind one Pending handle (comm.hpp). Rank-affine: only the rank
/// that created the handle mutates it, so no lock guards these fields — the
/// message itself is taken by Group::claim under the mailbox mutex.
struct PendingState {
  std::shared_ptr<Group> grp;
  int me = -1;    // group-local owner rank
  int peer = -1;  // dst (send) or requested src (recv); may be kAnySource
  int tag = kAnyTag;
  bool is_send = false;
  bool matched = false;   // message claimed (or send completed eagerly)
  bool consumed = false;  // wait() already returned
  Message claimed;        // valid when matched && !is_send
  /// Checked-mode handle-leak registry ticket (0 when unchecked).
  std::uint64_t check_id = 0;
};

}  // namespace xmp::detail
