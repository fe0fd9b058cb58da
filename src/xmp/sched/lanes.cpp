#include "xmp/sched/lanes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <system_error>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace xmp::lanes {

namespace {

using detail::Body;

/// How long a waiter polls before it sleeps on the futex: about the gap
/// between the force evaluations of consecutive DPD steps (integration and
/// the open-boundary churn run between them). A helper asleep longer joins
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

int cpus() noexcept {
  static const int n = usable_cpus();
  return n;
}

std::atomic<int> g_claimed{0};

class Pool {
public:
  Pool()
      : errors_(std::make_unique<std::exception_ptr[]>(kMaxLanes)),
        threads_(std::make_unique<std::thread[]>(kMaxLanes)) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    stop_.store(true, std::memory_order_relaxed);
    ticket_.fetch_add(kNextGen, std::memory_order_release);
    ticket_.notify_all();
    for (int k = 0; k < started_; ++k) threads_[k].join();
  }

  Pass run(int want, Body body, void* ctx) {
    int most = std::min(want, width());
    if (most <= 1 || busy_.exchange(true, std::memory_order_acquire)) {
      body(ctx, 0, 1);
      return {};
    }
    struct Release {
      std::atomic<bool>& busy;
      ~Release() { busy.store(false, std::memory_order_release); }
    } release{busy_};

    const std::uint64_t gen = ticket_.load(std::memory_order_relaxed) >> 32;
    try {
      for (; started_ < most - 1; ++started_)
        threads_[started_] = std::thread([this, gen] { helper(gen); });
    } catch (const std::system_error&) {
      most = started_ + 1;  // no more threads: use the helpers there are
    }
    body_ = body;
    ctx_ = ctx;
    most_ = most;
    done_.store(0, std::memory_order_relaxed);
    // open the pass: a new generation that nobody joined yet
    ticket_.store((gen + 1) << 32, std::memory_order_release);
    ticket_.notify_all();

    std::exception_ptr err;
    try {
      body(ctx, 0, most);
    } catch (...) {
      err = std::current_exception();
    }
    // Close the pass: a helper that has not joined by now skips it, so the
    // caller never waits for a helper that is asleep or descheduled.
    std::uint64_t t = ticket_.load(std::memory_order_relaxed);
    while (!ticket_.compare_exchange_weak(t, (t & ~kJoined) | kClosed,
                                          std::memory_order_acq_rel))
      ;
    const int joined = static_cast<int>(t & kJoined);
    const auto t0 = std::chrono::steady_clock::now();
    for (int d = done_.load(std::memory_order_acquire); d != joined;
         d = done_.load(std::memory_order_acquire))
      wait_while(done_, d);
    const double wait_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const int lanes = 1 + std::min(joined, most - 1);
    for (int k = 1; k < lanes; ++k)
      if (errors_[k]) {
        if (!err) err = errors_[k];
        errors_[k] = nullptr;
      }
    if (err) std::rethrow_exception(err);
    return {lanes, wait_s};
  }

private:
  // ticket_ packs the pass generation (high 32 bits) with the helpers that
  // joined it, or kClosed once lane 0 has returned (low 32 bits)
  static constexpr std::uint64_t kNextGen = std::uint64_t{1} << 32;
  static constexpr std::uint64_t kJoined = kNextGen - 1;
  static constexpr std::uint64_t kClosed = kJoined;

  void helper(std::uint64_t seen) {
    for (;;) {
      std::uint64_t t = ticket_.load(std::memory_order_acquire);
      while ((t >> 32) == seen) {
        wait_while(ticket_, t);
        t = ticket_.load(std::memory_order_acquire);
      }
      seen = t >> 32;
      if (stop_.load(std::memory_order_relaxed)) return;
      // join the pass unless it closed or a newer one opened meanwhile
      int lane = 0;
      while ((t >> 32) == seen && (t & kJoined) != kClosed)
        if (ticket_.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          lane = static_cast<int>(t & kJoined) + 1;
          break;
        }
      if (lane == 0) continue;
      // joined: the caller waits for this lane, so the pass stays put
      if (lane < most_) {
        try {
          body_(ctx_, lane, most_);
        } catch (...) {
          errors_[lane] = std::current_exception();
        }
      }
      done_.fetch_add(1, std::memory_order_release);
      done_.notify_one();
    }
  }

  std::unique_ptr<std::exception_ptr[]> errors_;  ///< per helper lane
  std::atomic<bool> busy_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<int> done_{0};  ///< joined helpers that finished the pass
  // The pass, written before ticket_ opens it and read by helpers that
  // joined it.
  Body body_ = nullptr;
  void* ctx_ = nullptr;
  int most_ = 1;
  // the helpers, after everything they use
  std::unique_ptr<std::thread[]> threads_;
  int started_ = 0;
};

}  // namespace

int width() noexcept {
  return std::clamp(cpus() - g_claimed.load(std::memory_order_relaxed), 1, kMaxLanes);
}

namespace detail {

Pass run(int want, Body body, void* ctx) {
  static Pool pool;
  return pool.run(want, body, ctx);
}

void claim_workers(int n) noexcept { g_claimed.fetch_add(n, std::memory_order_relaxed); }

}  // namespace detail

}  // namespace xmp::lanes
