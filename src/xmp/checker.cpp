#include "xmp/checker.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "xmp/env.hpp"

namespace xmp {

CheckOptions CheckOptions::from_env() {
  CheckOptions o;
  if (auto v = detail::env_flag("XMP_CHECK")) o.enabled = *v;
  constexpr long kDayMs = 24L * 3600 * 1000;
  if (auto v = detail::env_int("XMP_CHECK_STALL_MS", 0, kDayMs))
    o.stall_timeout = std::chrono::milliseconds(*v);
  return o;
}

namespace detail {

namespace {

bool desc_equal(const CollDesc& a, const CollDesc& b) {
  if (a.kind != b.kind || a.elem_size != b.elem_size || a.root != b.root || a.extra != b.extra)
    return false;
  if (a.shape != kShapeUnknown && b.shape != kShapeUnknown && a.shape != b.shape) return false;
  return true;
}

/// `v`, or "any" for the kAnySource / kAnyTag wildcard.
std::string or_any(int v) { return v == kAnySource ? "any" : std::to_string(v); }

void print_desc(std::ostringstream& os, const CollDesc& d) {
  os << to_string(d.kind) << "(elem=" << d.elem_size;
  if (d.root >= 0) os << ", root=" << d.root;
  if (d.extra >= 0) os << ", op=" << d.extra;
  if (d.shape != kShapeUnknown) os << ", shape=" << d.shape;
  os << ")";
}

}  // namespace

Checker::Checker(RunState* rs, CheckOptions opts)
    : rs_(rs), opts_(opts), slots_(static_cast<std::size_t>(rs->world_size)) {}

Checker::~Checker() { stop_watchdog(); }

// ---- rank affinity ----------------------------------------------------------

void Checker::check_affinity(const Group& g, int local_rank, const char* op) const {
  // Identity comes from the scheduler's rank context, never from the OS
  // thread: a rank legally migrates between worker threads, and a thread-id
  // comparison would fire falsely. A helper thread spawned by user code has
  // no rank context (current_rank() == -1) and is caught.
  const int w = world_of(g, local_rank);
  const int cur = sched::current_rank();
  if (cur == w) return;
  std::ostringstream os;
  os << "xmp checked: thread-affinity violation: " << op << " on comm " << g.name()
     << " used a Comm handle owned by world rank " << w << " from ";
  if (cur < 0) os << "a thread outside any rank";
  else os << "world rank " << cur;
  os << " (Comm handles are rank-affine: only the rank they were created for may use them)";
  throw CheckError(os.str());
}

// ---- collective matching ----------------------------------------------------

void Checker::verify_collective(Group& g, const std::vector<CollDesc>& descs, std::uint64_t seq) {
  // Modal descriptor: the shape most ranks agree on; deviants are offenders.
  std::size_t best = 0, best_votes = 0;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    std::size_t votes = 0;
    for (const auto& d : descs)
      if (desc_equal(descs[i], d)) ++votes;
    if (votes > best_votes) {
      best_votes = votes;
      best = i;
    }
  }
  if (best_votes == descs.size()) return;

  std::ostringstream os;
  os << "xmp checked: collective mismatch on comm " << g.name() << " (collective #" << seq
     << "): ranks disagree on the operation\n";
  for (std::size_t r = 0; r < descs.size(); ++r) {
    os << "  world rank " << g.world_ranks[r] << ": ";
    print_desc(os, descs[r]);
    os << (desc_equal(descs[r], descs[best]) ? "\n" : "   <-- offender\n");
  }
  os << "  (majority operation: ";
  print_desc(os, descs[best]);
  os << ")";
  // Called with g.cmu held: do NOT abort_all() here (wake_all would relock
  // cmu). Mark the run aborted, wake this slot's waiters, and let the
  // CheckError unwind into run()'s handler, which performs the global wake.
  rs_->record_check_error(std::make_exception_ptr(CheckError(os.str())));
  rs_->aborted.store(true);
  g.ccv.notify_all();
  throw CheckError(os.str());
}

// ---- wait registry ----------------------------------------------------------

void Checker::block_recv(Group& g, int me_local, int src_local, int tag) {
  Slot& s = slots_[static_cast<std::size_t>(world_of(g, me_local))];
  std::lock_guard lk(s.mu);
  s.op.kind = BlockedOp::Kind::Recv;
  s.op.grp = g.shared_from_this();
  s.op.local_rank = me_local;
  s.op.src_world = src_local == kAnySource ? kAnySource : world_of(g, src_local);
  s.op.tag = tag;
  s.op.bytes = 0;
  ++s.op.wait_gen;
  s.op.since = std::chrono::steady_clock::now();
}

void Checker::block_collective(Group& g, int me_local, const CollDesc& desc,
                               std::uint64_t slot_gen, std::size_t bytes) {
  Slot& s = slots_[static_cast<std::size_t>(world_of(g, me_local))];
  std::lock_guard lk(s.mu);
  s.op.kind = BlockedOp::Kind::Collective;
  s.op.grp = g.shared_from_this();
  s.op.local_rank = me_local;
  s.op.desc = desc;
  s.op.slot_gen = slot_gen;
  s.op.bytes = bytes;
  ++s.op.wait_gen;
  s.op.since = std::chrono::steady_clock::now();
}

void Checker::unblock(const Group& g, int me_local) {
  Slot& s = slots_[static_cast<std::size_t>(world_of(g, me_local))];
  std::lock_guard lk(s.mu);
  s.op.kind = BlockedOp::Kind::None;
  s.op.grp.reset();
}

// ---- nonblocking-p2p handle hygiene ----------------------------------------

std::uint64_t Checker::register_pending(const Group& g, int me_local, int peer_local, int tag,
                                        bool is_send) {
  std::ostringstream os;
  os << "comm " << g.name() << ": " << (is_send ? "isend(dst=" : "irecv(src=")
     << (peer_local == kAnySource ? "any" : std::to_string(world_of(g, peer_local)))
     << ", tag=" << or_any(tag) << ") held by world rank " << world_of(g, me_local);
  std::lock_guard lk(pend_mu_);
  const std::uint64_t id = next_pending_++;
  pending_.emplace(id, os.str());
  return id;
}

void Checker::complete_pending(std::uint64_t id) {
  std::lock_guard lk(pend_mu_);
  pending_.erase(id);
}

void Checker::report_leaked_pending() {
  std::size_t count = 0;
  std::ostringstream os;
  {
    std::lock_guard lk(pend_mu_);
    count = pending_.size();
    for (const auto& [id, desc] : pending_) {
      (void)id;
      os << "\n  " << desc;
    }
  }
  if (count == 0) return;
  throw CheckError("xmp checked: " + std::to_string(count) +
                   " leaked pending handle(s) never completed by wait()/test():" + os.str());
}

BlockedOp Checker::snapshot_slot(int world) const {
  const Slot& s = slots_[static_cast<std::size_t>(world)];
  std::lock_guard lk(s.mu);
  return s.op;
}

// ---- diagnostics ------------------------------------------------------------

std::string Checker::describe_blocked(int world, const BlockedOp& op,
                                      std::chrono::steady_clock::time_point now) const {
  std::ostringstream os;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - op.since).count();
  os << "  world rank " << world << ": ";
  if (op.kind == BlockedOp::Kind::Recv) {
    os << "recv(src=" << or_any(op.src_world) << ", tag=" << or_any(op.tag) << ")";
  } else if (op.kind == BlockedOp::Kind::Collective) {
    os << "collective #" << op.slot_gen << " ";
    print_desc(os, op.desc);
    os << ", " << op.bytes << " payload bytes";
  } else {
    os << "(not blocked)";
  }
  if (op.grp) os << " on comm " << op.grp->name();
  os << ", blocked for " << ms << " ms";
  return os.str();
}

std::string Checker::dump_all_blocked(std::chrono::steady_clock::time_point now) const {
  std::ostringstream os;
  for (int w = 0; w < rs_->world_size; ++w) {
    const BlockedOp op = snapshot_slot(w);
    if (op.kind == BlockedOp::Kind::None) continue;
    os << "\n" << describe_blocked(w, op, now);
  }
  return os.str();
}

// ---- watchdog ---------------------------------------------------------------

void Checker::start_watchdog() {
  watchdog_ = std::thread([this] { watchdog_main(); });
}

void Checker::stop_watchdog() {
  if (!watchdog_.joinable()) return;
  {
    std::lock_guard lk(wd_mu_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  watchdog_.join();
}

void Checker::watchdog_main() {
  std::unique_lock lk(wd_mu_);
  while (!wd_stop_) {
    wd_cv_.wait_for(lk, opts_.poll_interval);
    if (wd_stop_ || declared_) continue;
    lk.unlock();
    poll_once();
    lk.lock();
  }
}

void Checker::declare(const std::string& msg) {
  {
    std::lock_guard lk(wd_mu_);
    if (declared_) return;
    declared_ = true;
  }
  rs_->record_check_error(std::make_exception_ptr(CheckError(msg)));
  rs_->abort_all();
}

void Checker::poll_once() {
  const auto now = std::chrono::steady_clock::now();
  const int n = rs_->world_size;
  std::vector<BlockedOp> ops(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) ops[static_cast<std::size_t>(w)] = snapshot_slot(w);

  // Stall timeout: any rank blocked beyond the budget dumps the whole run.
  if (opts_.stall_timeout.count() > 0) {
    for (int w = 0; w < n; ++w) {
      const auto& op = ops[static_cast<std::size_t>(w)];
      if (op.kind == BlockedOp::Kind::None) continue;
      if (now - op.since > opts_.stall_timeout) {
        std::ostringstream os;
        os << "xmp checked: stall: world rank " << w << " has been blocked for more than "
           << opts_.stall_timeout.count() << " ms; every blocked operation:";
        for (int v = 0; v < n; ++v)
          if (ops[static_cast<std::size_t>(v)].kind != BlockedOp::Kind::None)
            os << "\n" << describe_blocked(v, ops[static_cast<std::size_t>(v)], now);
        declare(os.str());
        return;
      }
    }
  }

  // Wait-for edges. A specific-source recv waits on exactly one rank; a rank
  // parked in a collective waits on every group member that has not arrived
  // at the same slot generation (all are required, so each is an edge).
  // Any-source receives can be satisfied by any peer and contribute no edge.
  std::vector<std::vector<int>> edges(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    const auto& op = ops[static_cast<std::size_t>(w)];
    if (op.kind == BlockedOp::Kind::Recv && op.src_world != kAnySource) {
      edges[static_cast<std::size_t>(w)].push_back(op.src_world);
    } else if (op.kind == BlockedOp::Kind::Collective && op.grp) {
      for (int member : op.grp->world_ranks) {
        if (member == w) continue;
        const auto& mop = ops[static_cast<std::size_t>(member)];
        const bool co_waiting = mop.kind == BlockedOp::Kind::Collective &&
                                mop.grp.get() == op.grp.get() && mop.slot_gen == op.slot_gen;
        if (!co_waiting) edges[static_cast<std::size_t>(w)].push_back(member);
      }
    }
  }

  // DFS cycle search (world sizes are small; O(V+E) per poll).
  std::vector<int> color(static_cast<std::size_t>(n), 0);  // 0 white 1 grey 2 black
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<int> cycle;
  std::function<bool(int)> dfs = [&](int u) {
    color[static_cast<std::size_t>(u)] = 1;
    for (int v : edges[static_cast<std::size_t>(u)]) {
      if (color[static_cast<std::size_t>(v)] == 1) {
        cycle.push_back(v);
        for (int x = u; x != v; x = parent[static_cast<std::size_t>(x)]) cycle.push_back(x);
        std::reverse(cycle.begin(), cycle.end());
        return true;
      }
      if (color[static_cast<std::size_t>(v)] == 0) {
        parent[static_cast<std::size_t>(v)] = u;
        if (dfs(v)) return true;
      }
    }
    color[static_cast<std::size_t>(u)] = 2;
    return false;
  };
  for (int w = 0; w < n && cycle.empty(); ++w)
    if (color[static_cast<std::size_t>(w)] == 0) (void)dfs(w);

  if (cycle.empty()) {
    candidate_.clear();
    return;
  }

  // Canonicalise (rotate so the smallest rank leads) and require the same
  // cycle, with unchanged wait generations, on two consecutive polls. That
  // rules out transients where a rank has matched a message but not yet
  // deregistered.
  const auto min_it = std::min_element(cycle.begin(), cycle.end());
  std::rotate(cycle.begin(), min_it, cycle.end());
  std::vector<std::pair<int, std::uint64_t>> pairs;
  pairs.reserve(cycle.size());
  for (int w : cycle) pairs.emplace_back(w, ops[static_cast<std::size_t>(w)].wait_gen);

  if (pairs != candidate_) {
    candidate_ = std::move(pairs);
    return;
  }

  // Confirmed twice; final guard: a message already sitting in a member's
  // mailbox that matches its wait, or a collective slot that has moved past
  // the generation a member parked at (released, not yet resumed), means the
  // cycle is about to break.
  for (int w : cycle) {
    const auto& op = ops[static_cast<std::size_t>(w)];
    if (op.kind == BlockedOp::Kind::Collective && op.grp) {
      std::lock_guard lk(op.grp->cmu);
      if (op.grp->gen != op.slot_gen) return;
    }
    if (op.kind != BlockedOp::Kind::Recv || !op.grp) continue;
    Mailbox& box = *op.grp->boxes[static_cast<std::size_t>(op.local_rank)];
    const int src_local = op.grp->local_rank_of_world(op.src_world);
    std::lock_guard lk(box.mu);
    for (const auto& m : box.q)
      if (m.src == src_local && (op.tag == kAnyTag || m.tag == op.tag)) return;
  }

  std::ostringstream os;
  os << "xmp checked: deadlock detected (wait-for cycle:";
  for (std::size_t i = 0; i < cycle.size(); ++i) os << " " << cycle[i] << " ->";
  os << " " << cycle[0] << "); blocked operations:";
  for (int w : cycle) os << "\n" << describe_blocked(w, ops[static_cast<std::size_t>(w)], now);
  const std::string rest = dump_all_blocked(now);
  if (!rest.empty()) os << "\nall blocked ranks:" << rest;
  declare(os.str());
}

// ---- run end ----------------------------------------------------------------

void Checker::retain_group(std::shared_ptr<Group> g) {
  std::lock_guard lk(groups_mu_);
  retained_.push_back(std::move(g));
}

void Checker::release_groups() {
  std::lock_guard lk(groups_mu_);
  retained_.clear();
}

void Checker::report_leftovers() {
  std::vector<std::shared_ptr<Group>> groups;
  {
    std::lock_guard lk(groups_mu_);
    groups = retained_;
  }
  std::size_t count = 0;
  std::ostringstream os;
  for (const auto& g : groups) {
    for (std::size_t dst = 0; dst < g->boxes.size(); ++dst) {
      std::lock_guard lk(g->boxes[dst]->mu);
      for (const auto& m : g->boxes[dst]->q) {
        ++count;
        os << "\n  comm " << g->name() << ": src " << g->world_ranks[static_cast<std::size_t>(m.src)]
           << " -> dst " << g->world_ranks[dst] << ", tag " << m.tag << ", " << m.data.size()
           << " bytes";
      }
    }
  }
  if (count == 0) return;
  throw CheckError("xmp checked: " + std::to_string(count) +
                   " unreceived message(s) left in mailboxes at end of run:" + os.str());
}

}  // namespace detail
}  // namespace xmp
