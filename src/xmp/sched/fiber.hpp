#pragma once
// Cooperative fiber executor behind every xmp::run. Internal header: user
// code tunes it through xmp::SchedOptions (sched.hpp).
//
// Each rank is a ucontext fiber on its own guard-paged mmap stack; a small
// pool of worker threads drains a FIFO run queue of runnable fibers. A fiber
// leaves the queue in exactly two ways: it finishes, or it parks inside
// WaitCv::wait (detail.hpp) — the runtime's only blocking points (mailbox
// recv, the collective slot) go through WaitCv, so every blocking point is a
// yield point. Wakers (other ranks, the checked-mode watchdog) re-enqueue
// parked fibers via make_runnable(), which is safe against the
// unlock-then-suspend race: a fiber that is woken between releasing the site
// mutex and completing its context switch is flagged wake_pending and
// re-enqueued by its worker right after the switch completes.

#include <ucontext.h>

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "xmp/sched/sched.hpp"

namespace xmp::detail {

class FiberScheduler;

/// One cooperatively scheduled rank. Scheduling state (state, wake_pending)
/// is guarded by FiberScheduler::mu_.
struct Fiber {
  enum class State : std::uint8_t {
    Runnable,  ///< in the run queue
    Running,   ///< executing on some worker
    Parking,   ///< left a WaitCv wait, context switch not yet complete
    Parked,    ///< fully suspended, waiting for make_runnable
    Done,      ///< rank body returned
  };

  FiberScheduler* sched = nullptr;
  int world_rank = -1;

  ucontext_t ctx{};
  char* map_base = nullptr;      ///< own mmap (guarded mode); null in slab mode
  std::size_t map_bytes = 0;
  char* stack_base = nullptr;    ///< usable stack (above the guard page, if any)
  std::size_t stack_bytes = 0;

  State state = State::Runnable;
  bool wake_pending = false;

  /// Rank-local storage (sched::rank_local_slot): follows the fiber across
  /// workers; telemetry keys its per-rank registry on it.
  std::shared_ptr<void> local_slot;

  // Sanitizer bookkeeping (ASan fake-stack handoff, TSan fiber identity).
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

class FiberScheduler {
public:
  explicit FiberScheduler(const SchedOptions& opts);
  ~FiberScheduler();
  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Creates one fiber per rank, runs body(rank) for each over the worker
  /// pool, and returns when every fiber finished. Exceptions must not escape
  /// `body` (xmp::run's rank wrapper catches them and aborts the run).
  void run(int nranks, const std::function<void(int)>& body);

  /// Re-enqueues a parked (or about-to-park) fiber. Thread-safe: callable
  /// from rank fibers, worker threads and foreign threads (the checked-mode
  /// watchdog aborting a run).
  void make_runnable(Fiber* f);

  /// Parks the current fiber. `lk` (the WaitCv site mutex) must be held; it
  /// is released while the fiber is suspended and re-acquired before this
  /// returns. Spurious returns are possible — callers re-check predicates.
  void park(std::unique_lock<std::mutex>& lk);

  /// Cooperative yield: requeues the current fiber at the back of the run
  /// queue and switches to the worker, so every other runnable fiber gets a
  /// turn first. The progress guarantee behind poll loops (Pending::test).
  void yield_current();

private:
  void worker_main();
  void dispatch(Fiber* f);
  void switch_to_worker(Fiber* f, bool dying);
  static void trampoline(unsigned hi, unsigned lo);

  Fiber* make_fiber(int rank);
  void destroy_fiber(Fiber* f);

  SchedOptions opts_;
  char* slab_base_ = nullptr;  ///< one contiguous stack slab (guard_pages off)
  std::size_t slab_bytes_ = 0;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Fiber*> runq_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  int live_ = 0;
  const std::function<void(int)>* body_ = nullptr;
};

/// Fiber the calling OS thread is currently executing, or nullptr on plain
/// threads (helper threads, the watchdog, main).
Fiber* current_fiber() noexcept;

/// The calling rank's fiber; throws std::logic_error on a plain thread.
/// Parking needs a fiber to suspend, so a blocking call from a plain thread
/// is refused rather than left to hang; checked mode reports the same
/// misuse earlier as a CheckError.
Fiber* require_rank_fiber();

/// Yields the calling fiber to its scheduler; no-op on plain threads.
/// Non-blocking runtime calls that poll — `while (!p.test()) ...` — route
/// through this so the polled-on rank can run even on a single worker
/// (fibers are never preempted).
void fiber_yield() noexcept;

}  // namespace xmp::detail
