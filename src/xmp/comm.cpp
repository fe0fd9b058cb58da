#include "xmp/comm.hpp"

#include <algorithm>
#include <map>

#include "xmp/checker.hpp"
#include "xmp/detail.hpp"
#include "xmp/sched/fiber.hpp"

namespace xmp {
namespace detail {

void RunState::record_check_error(std::exception_ptr e) {
  std::lock_guard lk(check_err_mu);
  if (!check_error) check_error = std::move(e);
}

void RunState::abort_all() {
  aborted.store(true);
  // Snapshot under reg_mu, wake outside it: split() registers the new group
  // (taking reg_mu) from inside the parent's collective combiner, i.e. while
  // holding that group's cmu — waking under reg_mu would invert that order.
  std::vector<std::shared_ptr<Group>> live;
  {
    std::lock_guard lk(reg_mu);
    live.reserve(groups.size());
    for (auto& w : groups)
      if (auto g = w.lock()) live.push_back(std::move(g));
  }
  for (auto& g : live) g->wake_all();
}

Group::Group(std::shared_ptr<RunState> rs_, int id_, std::vector<int> wr)
    : rs(std::move(rs_)), id(id_), world_ranks(std::move(wr)), inputs(world_ranks.size()),
      descs(world_ranks.size()) {
  boxes.reserve(world_ranks.size());
  for (std::size_t i = 0; i < world_ranks.size(); ++i)
    boxes.push_back(std::make_unique<Mailbox>());
}

std::string Group::name() const {
  if (id == 0) return "world";
  std::string s = "comm#" + std::to_string(id) + "{";
  const std::size_t shown = std::min<std::size_t>(world_ranks.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i) s += ",";
    s += std::to_string(world_ranks[i]);
  }
  if (shown < world_ranks.size()) s += ",...";
  return s + "}";
}

int Group::local_rank_of_world(int world) const {
  for (std::size_t i = 0; i < world_ranks.size(); ++i)
    if (world_ranks[i] == world) return static_cast<int>(i);
  return -1;
}

void Group::wake_all() {
  {
    std::lock_guard lk(cmu);
    ccv.notify_all();
  }
  for (auto& b : boxes) {
    std::lock_guard lk(b->mu);
    b->cv.notify_all();
  }
}

std::shared_ptr<void> Group::collective(int rank, const void* ptr, std::size_t bytes,
                                        const CollDesc& desc, const CombineFn& combine) {
  if (rs->checker) rs->checker->check_affinity(*this, rank, to_string(desc.kind));
  // Refuse a non-rank caller before it touches the slot, not inside the
  // WaitCv park where its input would already be registered.
  require_rank_fiber();
  std::unique_lock lk(cmu);
  check_abort();
  const std::uint64_t mygen = gen;
  inputs[static_cast<std::size_t>(rank)] = {ptr, bytes};
  if (rs->checker) descs[static_cast<std::size_t>(rank)] = desc;
  std::shared_ptr<void> out;
  if (++arrived == size()) {
    // Throws CheckError on mismatch (after marking the run aborted, so the
    // co-arrived ranks wake with AbortedError instead of hanging).
    if (rs->checker) rs->checker->verify_collective(*this, descs, mygen);
    result = combine(inputs);
    out = result;
    arrived = 0;
    ++gen;
    ccv.notify_all();
  } else {
    bool registered = false;
    while (gen == mygen && !rs->aborted.load(std::memory_order_relaxed)) {
      // Register in the wait-for graph only when actually parking.
      if (rs->checker && !registered) {
        rs->checker->block_collective(*this, rank, desc, mygen, bytes);
        registered = true;
      }
      ccv.wait(lk);
    }
    if (registered) rs->checker->unblock(*this, rank);
    check_abort();
    out = result;
  }
  return out;
}

void Group::emit_trace(int src, int dst, std::size_t bytes, int tag, TraceKind kind) {
  if (!rs->trace) return;
  std::lock_guard tl(rs->trace_mu);
  rs->trace(TraceEvent{world_ranks[static_cast<std::size_t>(src)],
                       world_ranks[static_cast<std::size_t>(dst)], bytes, tag, kind});
}

void Group::send(int src, int dst, int tag, const void* data, std::size_t bytes) {
  if (rs->checker) rs->checker->check_affinity(*this, src, "send");
  check_abort();
  if (dst < 0 || dst >= size())
    throw std::out_of_range("xmp: send dst " + std::to_string(dst) +
                            " out of range for comm of size " + std::to_string(size()));
  emit_trace(src, dst, bytes, tag, TraceKind::P2P);
  Mailbox& box = *boxes[static_cast<std::size_t>(dst)];
  Message m{src, tag, {}};
  m.data.resize(bytes);
  // analyze: memcpy-ok (destination is the untyped mailbox byte buffer)
  if (bytes) std::memcpy(m.data.data(), data, bytes);
  {
    // Notify under the mutex: WaitCv::notify_all touches the fiber waiter
    // list, which the mutex guards.
    std::lock_guard lk(box.mu);
    box.q.push_back(std::move(m));
    box.cv.notify_all();
  }
}

bool Group::claim(int me, int src, int tag, bool block, Message& out) {
  Mailbox& box = *boxes[static_cast<std::size_t>(me)];
  std::unique_lock lk(box.mu);
  auto match = [&]() -> std::deque<Message>::iterator {
    for (auto it = box.q.begin(); it != box.q.end(); ++it)
      if ((src == kAnySource || it->src == src) && (tag == kAnyTag || it->tag == tag))
        return it;
    return box.q.end();
  };
  auto it = match();
  if (block) {
    bool registered = false;
    while (it == box.q.end() && !rs->aborted.load(std::memory_order_relaxed)) {
      // Register in the wait-for graph only when actually parking (the fast
      // path where the message is already queued never touches the registry).
      if (rs->checker && !registered) {
        rs->checker->block_recv(*this, me, src, tag);
        registered = true;
      }
      box.cv.wait(lk);
      it = match();
    }
    if (registered) rs->checker->unblock(*this, me);
    check_abort();
  }
  if (it == box.q.end()) return false;
  out = std::move(*it);
  box.q.erase(it);
  return true;
}

std::vector<std::uint8_t> Group::recv(int me, int src, int tag, int* out_src, int* out_tag) {
  if (rs->checker) rs->checker->check_affinity(*this, me, "recv");
  if (src != kAnySource && (src < 0 || src >= size()))
    throw std::out_of_range("xmp: recv src " + std::to_string(src) +
                            " out of range for comm of size " + std::to_string(size()) +
                            " (tag " + std::to_string(tag) + ")");
  Message m{};
  claim(me, src, tag, /*block=*/true, m);
  if (out_src) *out_src = m.src;
  if (out_tag) *out_tag = m.tag;
  return std::move(m.data);
}

namespace {
std::shared_ptr<Group> make_group(const std::shared_ptr<RunState>& rs, std::vector<int> wr) {
  auto g = std::make_shared<Group>(rs, rs->next_group_id.fetch_add(1), std::move(wr));
  {
    std::lock_guard lk(rs->reg_mu);
    rs->groups.push_back(g);
  }
  if (rs->checker) rs->checker->retain_group(g);
  return g;
}
}  // namespace

}  // namespace detail

int Comm::size() const { return group_ ? group_->size() : 0; }

int Comm::world_rank() const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  return group_->world_ranks[static_cast<std::size_t>(rank_)];
}

void Comm::send_bytes(int dst, int tag, const void* data, std::size_t bytes) const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  group_->send(rank_, dst, tag, data, bytes);
}

std::vector<std::uint8_t> Comm::recv_bytes(int src, int tag, int* out_src, int* out_tag) const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  return group_->recv(rank_, src, tag, out_src, out_tag);
}

// ---- nonblocking p2p --------------------------------------------------------

namespace {

/// Retire a handle in the checked-mode leak registry (idempotent).
void retire_pending(detail::PendingState& st) {
  if (st.check_id != 0) {
    if (auto* ck = st.grp->rs->checker.get()) ck->complete_pending(st.check_id);
    st.check_id = 0;
  }
}

/// A live handle's state, registered in checked mode's leak registry.
std::shared_ptr<detail::PendingState> make_pending(const std::shared_ptr<detail::Group>& g,
                                                   int me, int peer, int tag, bool is_send) {
  const std::uint64_t id =
      g->rs->checker ? g->rs->checker->register_pending(*g, me, peer, tag, is_send) : 0;
  return std::make_shared<detail::PendingState>(detail::PendingState{
      g, me, peer, tag, is_send, /*matched=*/is_send, /*consumed=*/false, {}, id});
}

}  // namespace

Pending Comm::isend_bytes(int dst, int tag, const void* data, std::size_t bytes) const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  // The eager transport delivers inside send(); the handle is born complete
  // and only exists so completion stays symmetric with irecv_bytes (and so
  // checked mode can flag callers who drop it without wait()/test()).
  group_->send(rank_, dst, tag, data, bytes);
  return Pending(make_pending(group_, rank_, dst, tag, true));
}

Pending Comm::irecv_bytes(int src, int tag) const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  if (group_->rs->checker) group_->rs->checker->check_affinity(*group_, rank_, "irecv");
  if (src != kAnySource && (src < 0 || src >= size()))
    throw std::out_of_range("xmp: irecv src " + std::to_string(src) +
                            " out of range for comm of size " + std::to_string(size()) +
                            " (tag " + std::to_string(tag) + ")");
  group_->check_abort();
  return Pending(make_pending(group_, rank_, src, tag, false));
}

std::vector<std::uint8_t> Pending::wait(int* out_src, int* out_tag) {
  if (!st_) throw std::logic_error("xmp: wait() on an invalid Pending handle");
  detail::PendingState& st = *st_;
  if (st.consumed)
    throw std::logic_error("xmp: wait() called twice on the same Pending handle");
  detail::Group& g = *st.grp;
  if (g.rs->checker) g.rs->checker->check_affinity(g, st.me, "wait");
  if (st.is_send) {
    g.check_abort();
    st.consumed = true;
    retire_pending(st);
    return {};
  }
  if (!st.matched) {
    // The blocking claim Group::recv makes: parking goes through WaitCv, so
    // this wait() is a yield point, and the checked-mode watchdog sees it as
    // a blocked recv (wait-for cycles through Pending::wait are diagnosed
    // like recv deadlocks).
    g.claim(st.me, st.peer, st.tag, /*block=*/true, st.claimed);
    st.matched = true;
  } else {
    g.check_abort();
  }
  st.consumed = true;
  retire_pending(st);
  if (out_src) *out_src = st.claimed.src;
  if (out_tag) *out_tag = st.claimed.tag;
  return std::move(st.claimed.data);
}

bool Pending::test() {
  if (!st_) throw std::logic_error("xmp: test() on an invalid Pending handle");
  detail::PendingState& st = *st_;
  if (st.consumed)
    throw std::logic_error("xmp: test() after wait() on the same Pending handle");
  detail::Group& g = *st.grp;
  if (g.rs->checker) g.rs->checker->check_affinity(g, st.me, "test");
  g.check_abort();
  // Claim immediately: a true result stays true, and the payload is reserved
  // for the eventual wait().
  if (!st.matched) st.matched = g.claim(st.me, st.peer, st.tag, /*block=*/false, st.claimed);
  if (st.matched) {
    retire_pending(st);
    return true;
  }
  // A failed poll is a cooperative yield point: the caller's
  // `while (!test())` loop must let the polled-on rank run even on a
  // single worker.
  detail::fiber_yield();
  return false;
}

void Comm::barrier() const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  // analyze: no-trace (barriers carry no payload attribution)
  group_->collective(rank_, nullptr, 0, CollDesc{CollKind::Barrier, 0, -1, -1, 0},
                     [](const auto&) { return std::make_shared<int>(0); });
}

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::P2P: return "p2p";
    case TraceKind::Gather: return "gather";
    case TraceKind::Scatter: return "scatter";
    case TraceKind::Bcast: return "bcast";
    case TraceKind::Allgather: return "allgather";
    case TraceKind::Reduce: return "reduce";
  }
  return "?";
}

const char* to_string(CollKind k) {
  switch (k) {
    case CollKind::Raw: return "collect_bytes";
    case CollKind::Barrier: return "barrier";
    case CollKind::Bcast: return "bcast";
    case CollKind::Gatherv: return "gatherv";
    case CollKind::Allgatherv: return "allgatherv";
    case CollKind::Scatterv: return "scatterv";
    case CollKind::Allreduce: return "allreduce";
    case CollKind::Split: return "split";
  }
  return "?";
}

void Comm::trace_transfer(int src, int dst, std::size_t bytes, TraceKind kind) const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  group_->emit_trace(src, dst, bytes, kCollectiveTag, kind);
}

Comm Comm::split(int color, int key) const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  struct In {
    int color, key, rank;
  };
  struct Out {
    // per old-rank: the new group (may be null) and new rank
    std::vector<std::shared_ptr<detail::Group>> groups;
    std::vector<int> new_rank;
  };
  In mine{color, key, rank_};
  // analyze: no-trace (communicator management, not data movement)
  auto res = group_->collective(
      rank_, &mine, sizeof mine, CollDesc{CollKind::Split, sizeof mine, -1, -1, kShapeUnknown},
      [this](const auto& ins) {
    const int n = static_cast<int>(ins.size());
    std::vector<In> all(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
      std::memcpy(&all[static_cast<std::size_t>(r)], ins[static_cast<std::size_t>(r)].first,
                  sizeof(In));
    auto out = std::make_shared<Out>();
    out->groups.resize(static_cast<std::size_t>(n));
    out->new_rank.assign(static_cast<std::size_t>(n), -1);

    std::map<int, std::vector<In>> by_color;
    for (const auto& in : all)
      if (in.color != kUndefined) by_color[in.color].push_back(in);
    for (auto& [c, members] : by_color) {
      std::sort(members.begin(), members.end(), [](const In& a, const In& b) {
        return a.key != b.key ? a.key < b.key : a.rank < b.rank;
      });
      std::vector<int> wr;
      wr.reserve(members.size());
      for (const auto& m : members)
        wr.push_back(group_->world_ranks[static_cast<std::size_t>(m.rank)]);
      auto g = detail::make_group(group_->rs, std::move(wr));
      for (std::size_t i = 0; i < members.size(); ++i) {
        out->groups[static_cast<std::size_t>(members[i].rank)] = g;
        out->new_rank[static_cast<std::size_t>(members[i].rank)] = static_cast<int>(i);
      }
    }
    return std::shared_ptr<void>(out);
  });
  auto* out = static_cast<Out*>(res.get());
  auto g = out->groups[static_cast<std::size_t>(rank_)];
  if (!g) return Comm{};
  return Comm(g, out->new_rank[static_cast<std::size_t>(rank_)]);
}

namespace {

/// Shared result of a byte-collecting collective: every rank's contribution.
using Blobs = std::vector<std::vector<std::uint8_t>>;

std::shared_ptr<Blobs> collect_bytes(const std::shared_ptr<detail::Group>& g, int rank,
                                     const void* ptr, std::size_t bytes, const CollDesc& desc) {
  auto res = g->collective(rank, ptr, bytes, desc, [](const auto& ins) {
    auto blobs = std::make_shared<Blobs>(ins.size());
    for (std::size_t r = 0; r < ins.size(); ++r) {
      (*blobs)[r].resize(ins[r].second);
      // analyze: memcpy-ok (destination is an untyped contribution blob)
      if (ins[r].second) std::memcpy((*blobs)[r].data(), ins[r].first, ins[r].second);
    }
    return std::shared_ptr<void>(blobs);
  });
  return std::static_pointer_cast<Blobs>(res);
}

}  // namespace

// ---- collectives built on collect_bytes ------------------------------------

std::shared_ptr<const std::vector<std::vector<std::uint8_t>>> Comm::collect_bytes_all(
    const void* ptr, std::size_t bytes, const CollDesc& desc) const {
  if (!group_) throw std::logic_error("xmp: invalid comm");
  // analyze: no-trace (raw primitive; the typed collectives attribute traffic)
  return collect_bytes(group_, rank_, ptr, bytes, desc);
}

namespace {
/// Logical trace pattern of an allreduce: fan-in to rank 0, result fan-out.
void trace_allreduce(const Comm& c, std::size_t bytes) {
  if (c.rank() != 0) {
    c.trace_transfer(c.rank(), 0, bytes, TraceKind::Reduce);
  } else {
    for (int r = 1; r < c.size(); ++r) c.trace_transfer(0, r, bytes, TraceKind::Bcast);
  }
}

/// The one reduction loop behind every allreduce overload: each rank
/// contributes n values of T, and rank 0's values seed the result that the
/// other ranks fold into in rank order, so every rank gets the same bits.
template <class T>
std::vector<T> reduce_in_rank_order(const Comm& c, const std::shared_ptr<detail::Group>& g,
                                    const T* v, std::size_t n, Op op) {
  trace_allreduce(c, n * sizeof(T));
  const CollDesc desc{CollKind::Allreduce, sizeof(T), -1, static_cast<int>(op), n};
  auto blobs = collect_bytes(g, c.rank(), v, n * sizeof(T), desc);
  std::vector<T> acc(n);
  bool first = true;
  for (const auto& b : *blobs) {
    if (b.size() != n * sizeof(T))
      throw std::runtime_error("xmp: allreduce length mismatch: a rank contributed " +
                               std::to_string(b.size() / sizeof(T)) + " elements, this rank " +
                               std::to_string(n));
    for (std::size_t i = 0; i < n; ++i) {
      T x{};
      std::memcpy(&x, b.data() + i * sizeof x, sizeof x);
      if (first) {
        acc[i] = x;
        continue;
      }
      switch (op) {
        case Op::Sum: acc[i] += x; break;
        case Op::Min: acc[i] = std::min(acc[i], x); break;
        case Op::Max: acc[i] = std::max(acc[i], x); break;
      }
    }
    first = false;
  }
  return acc;
}

}  // namespace

double Comm::allreduce(double v, Op op) const {
  return reduce_in_rank_order(*this, group_, &v, 1, op)[0];
}

std::int64_t Comm::allreduce(std::int64_t v, Op op) const {
  return reduce_in_rank_order(*this, group_, &v, 1, op)[0];
}

std::vector<double> Comm::allreduce(std::span<const double> v, Op op) const {
  return reduce_in_rank_order(*this, group_, v.data(), v.size(), op);
}

void run(int nranks, const std::function<void(Comm&)>& fn, TraceSink trace,
         const CheckOptions& check, const SchedOptions& sched) {
  if (nranks <= 0) throw std::invalid_argument("xmp: nranks must be positive");
  auto rs = std::make_shared<detail::RunState>();
  rs->world_size = nranks;
  // Installed before any rank exists, and fixed for the whole run.
  rs->trace = std::move(trace);
  if (check.enabled) rs->checker = std::make_unique<detail::Checker>(rs.get(), check);
  std::vector<int> wr(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) wr[static_cast<std::size_t>(i)] = i;
  auto world = detail::make_group(rs, std::move(wr));

  // The checker retains every group (so the leftover sweep can reach
  // mailboxes of dropped sub-comms), and groups own the RunState that owns
  // the checker: break that deliberate cycle on every exit path, including
  // the error rethrows below.
  struct ReleaseGuard {
    detail::RunState* rs;
    ~ReleaseGuard() {
      if (rs->checker) rs->checker->release_groups();
    }
  } release_guard{rs.get()};
  if (rs->checker) rs->checker->start_watchdog();

  std::exception_ptr first_error;
  std::mutex err_mu;
  detail::FiberScheduler(sched).run(nranks, [&](int r) {
    Comm c(world, r);
    try {
      fn(c);
    } catch (...) {
      {
        std::lock_guard lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      rs->abort_all();
    }
  });
  if (rs->checker) rs->checker->stop_watchdog();
  if (first_error) {
    // Surface the root-cause failure, not the secondary AbortedErrors: when
    // the checker triggered the abort, its diagnosis is the root cause.
    try {
      std::rethrow_exception(first_error);
    } catch (const AbortedError&) {
      std::lock_guard lk(rs->check_err_mu);
      if (rs->check_error) std::rethrow_exception(rs->check_error);
      throw;
    }
  }
  {
    std::lock_guard lk(rs->check_err_mu);
    if (rs->check_error) std::rethrow_exception(rs->check_error);
  }
  // Clean run: report Pending handles never completed by wait()/test(), then
  // messages nobody ever received (either throws CheckError).
  if (rs->checker) {
    rs->checker->report_leaked_pending();
    rs->checker->report_leftovers();
  }
}

}  // namespace xmp
