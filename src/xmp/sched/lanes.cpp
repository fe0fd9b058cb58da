#include "xmp/sched/lanes.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "xmp/sched/fiber.hpp"

namespace xmp::lanes {

namespace {

using detail::Body;

/// How long a waiter polls before it sleeps on the futex: about the gap
/// between the force evaluations of consecutive DPD steps (integration and
/// the open-boundary churn run between them). A thread asleep longer joins
/// the next pass late; it never holds a pass up. Polling longer takes the
/// core from other processes.
constexpr std::chrono::microseconds kSpinFor{500};

void relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Returns once `a` no longer holds `v`: poll, then futex-wait.
template <class T>
void wait_while(const std::atomic<T>& a, T v) noexcept {
  const auto until = std::chrono::steady_clock::now() + kSpinFor;
  for (;;) {
    for (int k = 0; k < 64; ++k) {
      if (a.load(std::memory_order_acquire) != v) return;
      relax();
    }
    if (std::chrono::steady_clock::now() > until) break;
  }
  while (a.load(std::memory_order_acquire) == v) a.wait(v, std::memory_order_acquire);
}

/// The hardware threads this process may run on: its CPU affinity mask
/// (taskset, cpusets) where the platform has one, else
/// hardware_concurrency.
int usable_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(CPU_COUNT(&set), 1);
#endif
  return static_cast<int>(std::max(std::thread::hardware_concurrency(), 1u));
}

// ticket packs a fork-join's generation (high 32 bits) with the threads
// that joined it, or kClosed once lane 0 has returned (low 32 bits)
constexpr std::uint64_t kNextGen = std::uint64_t{1} << 32;
constexpr std::uint64_t kJoined = kNextGen - 1;
constexpr std::uint64_t kClosed = kJoined;

/// One fork-join in flight: a lane pass, or an xmp::run whose lanes are its
/// workers. Its lanes past lane 0 are the pool threads that join it.
struct ForkJoin {
  std::atomic<bool> busy{false};
  std::atomic<std::uint64_t> ticket{0};
  std::atomic<int> done{0};  ///< joined threads that finished their lane
  // written before ticket opens the fork-join, read by the threads that
  // joined it
  Body body = nullptr;
  void* ctx = nullptr;
  int most = 1;
  std::array<std::exception_ptr, kMaxLanes> errors;  ///< per joined lane
};

/// The threads of every xmp::run and every lane pass. A pool thread joins
/// the open run, else the open pass, else waits on wake_, which moves
/// whenever either has work for it: a new run or pass, a runnable fiber.
class Pool {
public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    stop_.store(true, std::memory_order_relaxed);
    wake();
    for (int k = 0; k < started_; ++k) threads_[k].join();
  }

  /// The caller plus the threads free to join a pass: pool threads that no
  /// run holds, started or not, and run workers idle in idle().
  int width() const noexcept {
    if (pass_.busy.load(std::memory_order_relaxed)) return 1;
    return std::clamp(1 + free_.load(std::memory_order_relaxed), 1, size_);
  }

  std::uint32_t epoch() const noexcept { return wake_.load(std::memory_order_acquire); }

  void wake() noexcept {
    wake_.fetch_add(1, std::memory_order_release);
    wake_.notify_all();
  }

  Pass pass(int want, Body body, void* ctx) {
    return fork_join(pass_, std::min(want, width()), body, ctx);
  }

  void run(int workers, Body body, void* ctx) {
    fork_join(run_, std::min(workers, size_), body, ctx);
  }

  /// A run worker with no fiber to run joins the open pass, else waits
  /// until wake_ moves past `seen`.
  void idle(std::uint32_t seen, std::uint32_t& seen_pass) {
    free_.fetch_add(1, std::memory_order_relaxed);
    if (!join(pass_, seen_pass)) wait_while(wake_, seen);
    free_.fetch_sub(1, std::memory_order_relaxed);
  }

private:
  /// Starts pool threads until `n` run, or as many as the system gives;
  /// returns how many run.
  int start(int n) {
    std::lock_guard lk(start_mu_);
    try {
      for (; started_ < std::min(n, size_ - 1); ++started_)
        threads_[started_] = std::thread([this] { serve(); });
    } catch (const std::system_error&) {
      // no more threads: the callers of runs and passes finish alone
    }
    return started_;
  }

  Pass fork_join(ForkJoin& fj, int most, Body body, void* ctx) {
    if (most <= 1 || fj.busy.exchange(true, std::memory_order_acquire)) {
      body(ctx, 0, 1);
      return {};
    }
    struct Release {
      std::atomic<bool>& busy;
      ~Release() { busy.store(false, std::memory_order_release); }
    } release{fj.busy};

    most = std::min(most, 1 + start(most - 1));
    fj.body = body;
    fj.ctx = ctx;
    fj.most = most;
    fj.done.store(0, std::memory_order_relaxed);
    // open it: a new generation that nobody joined yet
    const std::uint64_t gen = fj.ticket.load(std::memory_order_relaxed) >> 32;
    fj.ticket.store((gen + 1) << 32, std::memory_order_release);
    wake();

    std::exception_ptr err;
    try {
      body(ctx, 0, most);
    } catch (...) {
      err = std::current_exception();
    }
    // Close it: a thread that has not joined by now skips it, so the caller
    // never waits for a thread that is asleep, descheduled or busy.
    std::uint64_t t = fj.ticket.load(std::memory_order_relaxed);
    while (!fj.ticket.compare_exchange_weak(t, (t & ~kJoined) | kClosed,
                                            std::memory_order_acq_rel))
      ;
    const int joined = static_cast<int>(t & kJoined);
    const auto t0 = std::chrono::steady_clock::now();
    for (int d = fj.done.load(std::memory_order_acquire); d != joined;
         d = fj.done.load(std::memory_order_acquire))
      wait_while(fj.done, d);
    const double wait_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const int lanes = 1 + std::min(joined, most - 1);
    for (int k = 1; k < lanes; ++k)
      if (fj.errors[k]) {
        if (!err) err = fj.errors[k];
        fj.errors[k] = nullptr;
      }
    if (err) std::rethrow_exception(err);
    return {lanes, wait_s};
  }

  /// Joins `fj` unless it closed, this thread saw it already, or its lanes
  /// are taken, and runs its lane.
  bool join(ForkJoin& fj, std::uint32_t& seen_gen) {
    std::uint64_t t = fj.ticket.load(std::memory_order_acquire);
    const auto gen = static_cast<std::uint32_t>(t >> 32);
    if (gen == seen_gen) return false;
    seen_gen = gen;
    int lane = 0;
    while ((t >> 32) == gen && (t & kJoined) != kClosed)
      if (fj.ticket.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        lane = static_cast<int>(t & kJoined) + 1;
        break;
      }
    if (lane == 0) return false;
    // joined: the caller waits for this lane, so the fork-join stays put
    if (lane < fj.most) {
      const bool worker = &fj == &run_;  // free again only in idle()
      if (worker) free_.fetch_sub(1, std::memory_order_relaxed);
      try {
        fj.body(fj.ctx, lane, fj.most);
      } catch (...) {
        fj.errors[lane] = std::current_exception();
      }
      if (worker) free_.fetch_add(1, std::memory_order_relaxed);
    }
    fj.done.fetch_add(1, std::memory_order_release);
    fj.done.notify_one();
    return true;
  }

  /// A pool thread: the open run, else the open pass, else wait.
  void serve() {
    std::uint32_t seen_run = 0, seen_pass = 0;  // the generations it saw
    for (;;) {
      const std::uint32_t seen = epoch();
      if (stop_.load(std::memory_order_relaxed)) return;
      if (!join(run_, seen_run) && !join(pass_, seen_pass)) wait_while(wake_, seen);
    }
  }

  const int size_ = std::min(usable_cpus(), kMaxLanes);  ///< threads, a caller included
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> wake_{0};
  std::atomic<int> free_{size_ - 1};
  ForkJoin pass_, run_;
  // the threads, after everything they use
  std::mutex start_mu_;
  std::array<std::thread, kMaxLanes> threads_;
  int started_ = 0;
};

Pool& pool() {
  static Pool p;
  return p;
}

}  // namespace

int width() noexcept { return pool().width(); }

namespace detail {

Pass run(int want, Body body, void* ctx) { return pool().pass(want, body, ctx); }
void run_workers(int workers, Body worker, void* ctx) { pool().run(workers, worker, ctx); }
std::uint32_t epoch() noexcept { return pool().epoch(); }
void idle(std::uint32_t seen, std::uint32_t& seen_pass) { pool().idle(seen, seen_pass); }
void wake() noexcept { pool().wake(); }

}  // namespace detail

}  // namespace xmp::lanes
