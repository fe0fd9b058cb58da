#pragma once
// Scheduling options and rank-context API for xmp::run.
//
// Every rank is a cooperatively scheduled ucontext fiber multiplexed over a
// small worker-thread pool (sched/fiber.hpp). Blocking points inside the
// runtime (mailbox recv, the collective slot, barrier) yield into the
// scheduler, so 4k-64k ranks execute on a laptop — the paper's Table 3-5
// rank counts are directly runnable instead of extrapolated (see
// docs/SCHED.md).
//
// Because a fiber may resume on a different worker thread than it parked on,
// rank identity MUST NOT be derived from the OS thread
// (std::this_thread::get_id()). This header is the one sanctioned source of
// rank identity: sched::current_rank() names the running rank, and
// sched::rank_local_slot() gives rank-local storage that migrates with the
// fiber (telemetry keys its per-rank registries on it).

#include <memory>

namespace xmp {

// Kept for bench/e2e/dpd_dist.cpp; the next benchmark change deletes it and `mode`.
enum class SchedMode { Fibers };

/// Per-run scheduling knobs, passed to xmp::run. They are set in code only:
/// no environment variable changes them.
struct SchedOptions {
  SchedMode mode = SchedMode::Fibers;
  /// Worker threads the fibers multiplex over. 0 picks
  /// min(hardware_concurrency, 8). With workers == 1 the FIFO run queue
  /// makes scheduling bitwise deterministic across identical runs.
  int workers = 0;
  /// Usable stack per rank, excluding the guard page. Rank bodies run user
  /// code on this stack; see docs/SCHED.md for sizing guidance.
  int stack_kb = 256;
  /// Map an inaccessible guard page below every stack so overflow faults
  /// instead of corrupting a neighbour. Each guarded stack costs two kernel
  /// VMAs, so runs beyond ~32k ranks exhaust the default vm.max_map_count;
  /// setting this false allocates all stacks from one contiguous slab (two
  /// VMAs total), trading overflow detection for scale.
  bool guard_pages = true;
};

namespace sched {

/// World rank of the calling execution context: the rank whose fiber is
/// running on this worker. -1 outside any rank (main thread, watchdog,
/// helper threads spawned by user code).
int current_rank() noexcept;

/// Rank-local storage slot of the running rank's fiber, or nullptr outside
/// any rank (plain threads fall back to genuinely thread-local storage).
/// The slot follows the fiber across worker threads.
std::shared_ptr<void>* rank_local_slot() noexcept;

namespace detail {
// Set by the scheduler on every fiber switch. Not user API.
void set_current_rank(int r) noexcept;
void set_rank_local_slot(std::shared_ptr<void>* slot) noexcept;
}  // namespace detail

}  // namespace sched
}  // namespace xmp
