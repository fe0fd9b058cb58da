#pragma once
// xmp — an in-process message-passing runtime with MPI-like semantics.
//
// The paper's Multilevel Communicating Interface (MCI, Sec. 3.1) is an
// algorithm over MPI communicators: the World communicator is split into
// topology groups (L2), task groups (L3) and interface groups (L4), and all
// coupling traffic flows point-to-point between group roots. We reproduce
// that algorithm faithfully on an in-process runtime where each rank is a
// cooperatively scheduled fiber (sched/sched.hpp, scaling to 4k-64k ranks
// in one process):
//   * communicators with rank/size, collective split (color/key),
//   * blocking tagged p2p send/recv (any-source supported),
//   * collectives: barrier, bcast, gather(v), scatter(v), allgather(v),
//     reduce/allreduce,
//   * a traffic trace hook so tests and the machine model can observe the
//     exact message pattern an algorithm generates,
//   * an optional checked mode (check.hpp) verifying collective matching,
//     rank affinity, deadlock freedom and mailbox hygiene at run time.
//
// A failed rank (uncaught exception) aborts the whole run: every blocked
// rank wakes and throws AbortedError, and xmp::run rethrows the original
// exception to the caller, so tests fail loudly instead of deadlocking.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "xmp/check.hpp"
#include "xmp/sched/sched.hpp"

namespace xmp {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
/// Color passed to split() by ranks that do not join any new communicator.
inline constexpr int kUndefined = -1;

/// Thrown in ranks blocked on communication when another rank fails.
struct AbortedError : std::runtime_error {
  AbortedError() : std::runtime_error("xmp: run aborted by failure in another rank") {}
};

/// What kind of transfer a TraceEvent describes. P2P events are real
/// mailbox messages; the collective kinds are *logical* transfers: the
/// in-process runtime executes collectives through a shared-memory slot, and
/// the trace hook reports the message pattern an MPI implementation of the
/// same collective would generate (gather fan-in, scatter/bcast fan-out,
/// reduce fan-in + result fan-out). barrier() and the raw collect_bytes_all
/// primitive carry no payload attribution and are not traced.
enum class TraceKind : std::uint8_t { P2P, Gather, Scatter, Bcast, Allgather, Reduce };

const char* to_string(TraceKind k);

/// Tag reported on logical collective transfers (collectives are untagged).
inline constexpr int kCollectiveTag = -2;

/// One observed transfer (world-rank endpoints).
struct TraceEvent {
  int src_world;
  int dst_world;
  std::size_t bytes;
  int tag;
  TraceKind kind = TraceKind::P2P;
};
using TraceSink = std::function<void(const TraceEvent&)>;

enum class Op { Sum, Min, Max };

/// Which collective operation a rank entered (checked-mode matching; also
/// part of the collective primitive's signature so the verifier can name
/// operations in diagnostics).
enum class CollKind : std::uint8_t {
  Raw,       ///< untyped collect_bytes_all
  Barrier,
  Bcast,
  Gatherv,
  Allgatherv,
  Scatterv,
  Allreduce,
  Split,
};

const char* to_string(CollKind k);

/// Sentinel for "this rank does not declare a shape for this collective"
/// (e.g. bcast non-roots learn the shape from the root).
inline constexpr std::size_t kShapeUnknown = static_cast<std::size_t>(-1);

/// Per-rank description of one collective call. Checked mode requires every
/// rank of a communicator to enter with pairwise-compatible descriptors:
/// kind, elem_size, root and extra must be equal, and all declared (non
/// kShapeUnknown) shapes must agree.
struct CollDesc {
  CollKind kind = CollKind::Raw;
  std::size_t elem_size = 0;
  int root = -1;                     ///< -1 for rootless collectives
  int extra = -1;                    ///< e.g. the reduce Op; -1 when unused
  std::size_t shape = kShapeUnknown; ///< element count, where declared
};

namespace detail {
struct Group;
struct RunState;
struct PendingState;
}  // namespace detail

/// Handle to a nonblocking point-to-point operation (Comm::isend_bytes /
/// Comm::irecv_bytes). wait() completes the operation — for receives it
/// blocks until a matching message arrives, and like every runtime blocking
/// point it is a fiber *yield* point (the parked rank's worker runs other
/// ranks); test() is a nonblocking completion
/// probe. Every handle must be completed by wait() (or a test() that
/// returned true) before the run ends: checked mode audits handle hygiene
/// and reports leaked handles the way it reports leftover mailbox messages.
/// Handles are rank-affine like the Comm that created them; movable, not
/// copyable.
class Pending {
public:
  Pending() = default;
  Pending(Pending&&) noexcept = default;
  Pending& operator=(Pending&&) noexcept = default;
  Pending(const Pending&) = delete;
  Pending& operator=(const Pending&) = delete;

  bool valid() const { return st_ != nullptr; }

  /// Complete the operation. Receives block until the matching message
  /// arrives (a checked-mode blocked op, so wait-for cycles through wait()
  /// are diagnosed like recv deadlocks) and return its payload, filling
  /// out_src/out_tag when non-null; sends return empty immediately (the
  /// in-process transport delivered at isend time). Throws std::logic_error
  /// on an invalid handle or a second wait().
  std::vector<std::uint8_t> wait(int* out_src = nullptr, int* out_tag = nullptr);

  /// Nonblocking completion probe: true when wait() would return without
  /// blocking. A matching message is claimed off the mailbox immediately,
  /// so a true result is stable and the payload stays reserved for wait().
  /// A false result is a cooperative yield point (the polled-on rank gets a
  /// turn), so `while (!p.test())` loops make progress on any worker count.
  bool test();

private:
  friend class Comm;
  explicit Pending(std::shared_ptr<detail::PendingState> st) : st_(std::move(st)) {}
  std::shared_ptr<detail::PendingState> st_;
};

/// Rank-local handle to a communicator. Cheap to copy; all copies refer to
/// the same group. Rank-affine: a Comm must only be used by the rank it was
/// created for — checked runs enforce this via the scheduler's rank
/// context (sched::current_rank), and a blocking call from a thread outside
/// any rank throws std::logic_error even unchecked.
class Comm {
public:
  Comm() = default;

  int rank() const { return rank_; }
  int size() const;
  int world_rank() const;
  bool valid() const { return group_ != nullptr; }

  /// Collective. Ranks passing the same color land in the same new
  /// communicator, ordered by (key, old rank). color==kUndefined yields an
  /// invalid Comm for that rank.
  Comm split(int color, int key) const;

  // --- point-to-point -----------------------------------------------------
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes) const;
  /// Blocking receive; src may be kAnySource, tag may be kAnyTag.
  /// Fills out_src/out_tag when non-null.
  std::vector<std::uint8_t> recv_bytes(int src, int tag, int* out_src = nullptr,
                                       int* out_tag = nullptr) const;

  /// Nonblocking send. The in-process transport is eager/buffered, so the
  /// payload is delivered before this returns and the handle is born
  /// complete — but it must still be retired by wait()/test() so checked
  /// mode can audit handle hygiene symmetrically with irecv_bytes.
  Pending isend_bytes(int dst, int tag, const void* data, std::size_t bytes) const;
  /// Nonblocking receive: returns immediately with a handle; the matching
  /// message is claimed by test() or wait(). src may be kAnySource, tag may
  /// be kAnyTag. Posting order does not reserve matching order — two
  /// outstanding irecvs with overlapping patterns claim messages in the
  /// order their test()/wait() calls run, not the order they were posted.
  Pending irecv_bytes(int src, int tag) const;

  template <class T>
  void send(int dst, int tag, std::span<const T> v) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, v.data(), v.size() * sizeof(T));
  }
  template <class T>
  void send(int dst, int tag, const std::vector<T>& v) const {
    send(dst, tag, std::span<const T>(v));
  }

  template <class T>
  std::vector<T> recv(int src, int tag, int* out_src = nullptr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    int got_src = kAnySource, got_tag = kAnyTag;
    auto raw = recv_bytes(src, tag, &got_src, &got_tag);
    if (raw.size() % sizeof(T) != 0)
      throw std::runtime_error(
          "xmp: recv size mismatch: message from src " + std::to_string(got_src) + " tag " +
          std::to_string(got_tag) + " is " + std::to_string(raw.size()) +
          " bytes, not a multiple of element size " + std::to_string(sizeof(T)));
    if (out_src) *out_src = got_src;
    std::vector<T> v(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
    return v;
  }

  // --- collectives ---------------------------------------------------------
  void barrier() const;

  template <class T>
  void bcast(std::vector<T>& data, int root) const;

  /// Variable-length gather: root receives the concatenation (with per-rank
  /// offsets); non-roots receive empty.
  template <class T>
  std::vector<T> gatherv(std::span<const T> mine, int root,
                         std::vector<std::size_t>* counts = nullptr) const;

  template <class T>
  std::vector<T> allgatherv(std::span<const T> mine,
                            std::vector<std::size_t>* counts = nullptr) const;

  /// Root provides `parts[r]` for each rank r; every rank returns its part.
  template <class T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& parts, int root) const;

  double allreduce(double v, Op op) const;
  std::int64_t allreduce(std::int64_t v, Op op) const;
  /// Element-wise allreduce of equal-length vectors.
  std::vector<double> allreduce(std::span<const double> v, Op op) const;

  /// Internal: report one logical transfer (local ranks of this comm) to the
  /// run's trace sink. Used by the collectives; near-zero cost when no sink
  /// is installed. Not intended as user API.
  void trace_transfer(int src, int dst, std::size_t bytes, TraceKind kind) const;

  /// Implementation primitive for the templated collectives: every rank
  /// contributes a byte blob and receives the full per-rank set. `desc`
  /// names the high-level operation for checked-mode matching. Public so
  /// the header templates below can use it; not intended as user API.
  std::shared_ptr<const std::vector<std::vector<std::uint8_t>>> collect_bytes_all(
      const void* ptr, std::size_t bytes, const CollDesc& desc) const;
  std::shared_ptr<const std::vector<std::vector<std::uint8_t>>> collect_bytes_all(
      const void* ptr, std::size_t bytes) const {
    return collect_bytes_all(ptr, bytes, CollDesc{});
  }

private:
  friend void run(int, const std::function<void(Comm&)>&, TraceSink, const CheckOptions&,
                  const SchedOptions&);
  friend struct detail::Group;
  Comm(std::shared_ptr<detail::Group> g, int rank) : group_(std::move(g)), rank_(rank) {}

  void require_root_in_range(int root, const char* what) const {
    if (root < 0 || root >= size())
      throw std::invalid_argument(std::string("xmp: ") + what + " root " + std::to_string(root) +
                                  " out of range for comm of size " + std::to_string(size()));
  }

  std::shared_ptr<detail::Group> group_;
  int rank_ = -1;
};

// ---- templated collectives --------------------------------------------------

template <class T>
void Comm::bcast(std::vector<T>& data, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  require_root_in_range(root, "bcast");
  const bool am_root = rank() == root;
  if (am_root)
    for (int r = 0; r < size(); ++r)
      if (r != root) trace_transfer(root, r, data.size() * sizeof(T), TraceKind::Bcast);
  auto blobs = collect_bytes_all(
      am_root ? data.data() : nullptr, am_root ? data.size() * sizeof(T) : 0,
      CollDesc{CollKind::Bcast, sizeof(T), root, -1, am_root ? data.size() : kShapeUnknown});
  const auto& src = (*blobs)[static_cast<std::size_t>(root)];
  if (src.size() % sizeof(T) != 0)
    throw std::runtime_error("xmp: bcast size mismatch: root " + std::to_string(root) +
                             " provided " + std::to_string(src.size()) +
                             " bytes, not a multiple of element size " +
                             std::to_string(sizeof(T)));
  if (!am_root) {
    data.resize(src.size() / sizeof(T));
    if (!src.empty()) std::memcpy(data.data(), src.data(), src.size());
  }
}

template <class T>
std::vector<T> Comm::gatherv(std::span<const T> mine, int root,
                             std::vector<std::size_t>* counts) const {
  static_assert(std::is_trivially_copyable_v<T>);
  require_root_in_range(root, "gatherv");
  if (rank() != root) trace_transfer(rank(), root, mine.size() * sizeof(T), TraceKind::Gather);
  auto blobs = collect_bytes_all(mine.data(), mine.size() * sizeof(T),
                                 CollDesc{CollKind::Gatherv, sizeof(T), root, -1, kShapeUnknown});
  std::vector<T> out;
  if (rank() != root) {
    if (counts) counts->clear();
    return out;
  }
  if (counts) counts->clear();
  for (std::size_t r = 0; r < blobs->size(); ++r) {
    const auto& b = (*blobs)[r];
    if (b.size() % sizeof(T) != 0)
      throw std::runtime_error("xmp: gatherv size mismatch: rank " + std::to_string(r) +
                               " contributed " + std::to_string(b.size()) +
                               " bytes, not a multiple of element size " +
                               std::to_string(sizeof(T)));
    const std::size_t k = b.size() / sizeof(T);
    if (counts) counts->push_back(k);
    const std::size_t off = out.size();
    out.resize(off + k);
    if (k) std::memcpy(out.data() + off, b.data(), b.size());
  }
  return out;
}

template <class T>
std::vector<T> Comm::allgatherv(std::span<const T> mine,
                                std::vector<std::size_t>* counts) const {
  static_assert(std::is_trivially_copyable_v<T>);
  for (int r = 0; r < size(); ++r)
    if (r != rank()) trace_transfer(rank(), r, mine.size() * sizeof(T), TraceKind::Allgather);
  auto blobs = collect_bytes_all(mine.data(), mine.size() * sizeof(T),
                                 CollDesc{CollKind::Allgatherv, sizeof(T), -1, -1, kShapeUnknown});
  std::vector<T> out;
  if (counts) counts->clear();
  for (std::size_t r = 0; r < blobs->size(); ++r) {
    const auto& b = (*blobs)[r];
    if (b.size() % sizeof(T) != 0)
      throw std::runtime_error("xmp: allgatherv size mismatch: rank " + std::to_string(r) +
                               " contributed " + std::to_string(b.size()) +
                               " bytes, not a multiple of element size " +
                               std::to_string(sizeof(T)));
    const std::size_t k = b.size() / sizeof(T);
    if (counts) counts->push_back(k);
    const std::size_t off = out.size();
    out.resize(off + k);
    if (k) std::memcpy(out.data() + off, b.data(), b.size());
  }
  return out;
}

template <class T>
std::vector<T> Comm::scatterv(const std::vector<std::vector<T>>& parts, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  require_root_in_range(root, "scatterv");
  // Root serialises [n, count_0..count_{n-1}, payload...] once; every rank
  // slices out its own part.
  std::vector<std::uint8_t> packed;
  std::size_t total = 0;
  if (rank() == root) {
    if (parts.size() != static_cast<std::size_t>(size()))
      throw std::invalid_argument("xmp: scatterv parts size " + std::to_string(parts.size()) +
                                  " != comm size " + std::to_string(size()));
    for (int r = 0; r < size(); ++r)
      if (r != root)
        trace_transfer(root, r, parts[static_cast<std::size_t>(r)].size() * sizeof(T),
                       TraceKind::Scatter);
    for (const auto& p : parts) total += p.size();
    packed.resize(sizeof(std::size_t) * (1 + parts.size()) + total * sizeof(T));
    std::uint8_t* w = packed.data();
    const std::size_t n = parts.size();
    std::memcpy(w, &n, sizeof n);
    w += sizeof n;
    for (const auto& p : parts) {
      const std::size_t k = p.size();
      std::memcpy(w, &k, sizeof k);
      w += sizeof k;
    }
    for (const auto& p : parts) {
      if (!p.empty()) std::memcpy(w, p.data(), p.size() * sizeof(T));
      w += p.size() * sizeof(T);
    }
  }
  auto blobs = collect_bytes_all(
      packed.data(), packed.size(),
      CollDesc{CollKind::Scatterv, sizeof(T), root, -1,
               rank() == root ? total : kShapeUnknown});
  const auto& b = (*blobs)[static_cast<std::size_t>(root)];
  // The packed header came from another rank: bounds-check every read before
  // trusting it (a mismatched collective otherwise turns into wild reads).
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("xmp: scatterv " + what + " (comm size " + std::to_string(size()) +
                             ", rank " + std::to_string(rank()) + ", root " +
                             std::to_string(root) + ")");
  };
  if (b.size() < sizeof(std::size_t)) fail("packed header truncated before rank count");
  const std::uint8_t* r = b.data();
  std::size_t n;
  std::memcpy(&n, r, sizeof n);
  r += sizeof n;
  if (n != static_cast<std::size_t>(size()))
    fail("rank count mismatch: header declares " + std::to_string(n) + " parts");
  if (b.size() < sizeof(std::size_t) * (1 + n)) fail("packed header truncated in counts array");
  std::vector<std::size_t> cnt(n);
  std::memcpy(cnt.data(), r, n * sizeof(std::size_t));
  r += n * sizeof(std::size_t);
  std::size_t sum = 0;
  for (std::size_t c : cnt) sum += c;
  if (b.size() != sizeof(std::size_t) * (1 + n) + sum * sizeof(T))
    fail("payload size mismatch: counts declare " + std::to_string(sum) + " elements of " +
         std::to_string(sizeof(T)) + " bytes but payload is " +
         std::to_string(b.size() - sizeof(std::size_t) * (1 + n)) + " bytes");
  std::size_t off = 0;
  for (int i = 0; i < rank(); ++i) off += cnt[static_cast<std::size_t>(i)];
  std::vector<T> out(cnt[static_cast<std::size_t>(rank())]);
  if (!out.empty()) std::memcpy(out.data(), r + off * sizeof(T), out.size() * sizeof(T));
  return out;
}

/// Launch `nranks` ranks, each running fn with its world communicator, and
/// rethrow the first rank failure after every rank has stopped. Every rank
/// is a cooperatively scheduled fiber; `sched` sizes the worker pool and the
/// fiber stacks (sched/sched.hpp), executing 4k-64k ranks on a laptop.
/// A non-null `trace` sink observes every traced transfer of the run, from
/// the first message to the last: it is installed before any rank starts
/// and cannot be replaced. It is invoked under a mutex and may be called
/// from any rank, on any worker thread. The default `check` reads
/// CheckOptions::from_env(), so exporting XMP_CHECK=1 switches every run in
/// the process that does not pass its own (see check.hpp and
/// docs/CHECKING.md).
void run(int nranks, const std::function<void(Comm&)>& fn, TraceSink trace = nullptr,
         const CheckOptions& check = CheckOptions::from_env(), const SchedOptions& sched = {});

}  // namespace xmp
