#include "xmp/sched/fiber.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <system_error>

#include "xmp/detail.hpp"
#include "xmp/sched/lanes.hpp"

// Sanitizers instrument the stack, so raw swapcontext without annotations
// corrupts their shadow state (CI runs the full suite under ASan and TSan).
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XMP_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define XMP_FIBER_TSAN 1
#endif
#endif
#if !defined(XMP_FIBER_ASAN) && defined(__SANITIZE_ADDRESS__)
#define XMP_FIBER_ASAN 1
#endif
#if !defined(XMP_FIBER_TSAN) && defined(__SANITIZE_THREAD__)
#define XMP_FIBER_TSAN 1
#endif
#ifdef XMP_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef XMP_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace xmp::detail {

namespace {

/// Per-worker context: the ucontext fibers swap back into, this worker's
/// stack bounds (for the sanitizer handoff) and the fiber currently running
/// on it.
struct WorkerContext {
  ucontext_t ctx{};
  Fiber* current = nullptr;
  void* asan_fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* tsan_fiber = nullptr;
};

// analyze: sched-context-ok (per-worker scheduler state, never rank identity)
thread_local WorkerContext* tl_worker = nullptr;

void worker_stack_bounds(WorkerContext& wc) {
#ifdef XMP_FIBER_ASAN
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      wc.stack_bottom = addr;
      wc.stack_size = size;
    }
    pthread_attr_destroy(&attr);
  }
#else
  (void)wc;
#endif
}

/// Annotated context switch out of `from_fiber` (or out of the worker when
/// from_fiber is null) into the target context. The ASan protocol: the
/// leaving context saves its fake stack and announces the destination stack;
/// whoever later resumes the leaving context completes the handoff by
/// calling finish on the saved pointer — which is exactly the code right
/// after each swapcontext below and at trampoline entry.
void annotated_swap(void** save_fake_stack, const void* target_bottom, std::size_t target_size,
                    void* target_tsan, ucontext_t* from, const ucontext_t* to,
                    void* resume_fake_stack) {
#ifdef XMP_FIBER_ASAN
  __sanitizer_start_switch_fiber(save_fake_stack, target_bottom, target_size);
#else
  (void)save_fake_stack;
  (void)target_bottom;
  (void)target_size;
#endif
#ifdef XMP_FIBER_TSAN
  if (target_tsan) __tsan_switch_to_fiber(target_tsan, 0);
#else
  (void)target_tsan;
#endif
  swapcontext(from, to);
#ifdef XMP_FIBER_ASAN
  __sanitizer_finish_switch_fiber(resume_fake_stack, nullptr, nullptr);
#else
  (void)resume_fake_stack;
#endif
}

}  // namespace

Fiber* current_fiber() noexcept { return tl_worker ? tl_worker->current : nullptr; }

Fiber* require_rank_fiber() {
  if (Fiber* f = current_fiber()) return f;
  throw std::logic_error(
      "xmp: blocking call from a thread outside any rank (Comm handles are rank-affine: only "
      "the rank they were created for may use them)");
}

void fiber_yield() noexcept {
  if (Fiber* f = current_fiber()) f->sched->yield_current();
}

FiberScheduler::FiberScheduler(const SchedOptions& opts) : opts_(opts) {
  if (opts_.stack_kb < 16)
    throw std::invalid_argument("xmp: SchedOptions.stack_kb must be >= 16");
}

FiberScheduler::~FiberScheduler() {
  for (auto& f : fibers_) destroy_fiber(f.get());
  if (slab_base_) munmap(slab_base_, slab_bytes_);
}

namespace {

std::size_t usable_stack_bytes(const SchedOptions& opts) {
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t raw = static_cast<std::size_t>(opts.stack_kb) * 1024;
  return (raw + page - 1) / page * page;
}

[[noreturn]] void stack_alloc_failed(const char* what) {
  throw std::system_error(
      errno, std::generic_category(),
      std::string("xmp: fiber stack allocation failed (") + what +
          "); guard-paged stacks cost two kernel VMAs each, so tens of thousands of ranks "
          "exhaust vm.max_map_count — set SchedOptions::guard_pages = false (the scaling "
          "benches' --no-guard-pages) or raise vm.max_map_count");
}

}  // namespace

Fiber* FiberScheduler::make_fiber(int rank) {
  auto f = std::make_unique<Fiber>();
  f->sched = this;
  f->world_rank = rank;

  const std::size_t usable = usable_stack_bytes(opts_);
  if (opts_.guard_pages) {
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    f->map_bytes = usable + page;  // one guard page below the stack
    void* base = mmap(nullptr, f->map_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) stack_alloc_failed("mmap");
    f->map_base = static_cast<char*>(base);
    if (mprotect(f->map_base, page, PROT_NONE) != 0) {
      const int saved = errno;
      munmap(f->map_base, f->map_bytes);
      errno = saved;
      stack_alloc_failed("guard mprotect");
    }
    f->stack_base = f->map_base + page;
  } else {
    // Slab mode: all stacks in one mapping, no guards (see SchedOptions).
    f->stack_base = slab_base_ + static_cast<std::size_t>(rank) * usable;
  }
  f->stack_bytes = usable;

  if (getcontext(&f->ctx) != 0)
    throw std::system_error(errno, std::generic_category(), "xmp: getcontext failed");
  f->ctx.uc_stack.ss_sp = f->stack_base;
  f->ctx.uc_stack.ss_size = f->stack_bytes;
  f->ctx.uc_link = nullptr;  // fibers exit via an explicit final switch
  const auto p = reinterpret_cast<std::uintptr_t>(f.get());
  makecontext(&f->ctx, reinterpret_cast<void (*)()>(&FiberScheduler::trampoline), 2,
              static_cast<unsigned>(p >> 32), static_cast<unsigned>(p & 0xffffffffu));
#ifdef XMP_FIBER_TSAN
  f->tsan_fiber = __tsan_create_fiber(0);
#endif
  fibers_.push_back(std::move(f));
  return fibers_.back().get();
}

void FiberScheduler::destroy_fiber(Fiber* f) {
  if (!f || !f->map_base) return;
#ifdef XMP_FIBER_TSAN
  if (f->tsan_fiber) __tsan_destroy_fiber(f->tsan_fiber);
#endif
  munmap(f->map_base, f->map_bytes);
  f->map_base = nullptr;
}

void FiberScheduler::trampoline(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                     static_cast<std::uintptr_t>(lo));
#ifdef XMP_FIBER_ASAN
  // First entry: this fiber never left, so there is no saved fake stack.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  (*f->sched->body_)(f->world_rank);
  {
    std::lock_guard lk(f->sched->mu_);
    f->state = Fiber::State::Done;
  }
  f->sched->switch_to_worker(f, /*dying=*/true);
  // unreachable: a Done fiber is never resumed
}

void FiberScheduler::switch_to_worker(Fiber* f, bool dying) {
  WorkerContext& wc = *tl_worker;
  // Passing a null save slot releases the ASan fake stack of a dying fiber.
  annotated_swap(dying ? nullptr : &f->asan_fake_stack, wc.stack_bottom, wc.stack_size,
                 wc.tsan_fiber, &f->ctx, &wc.ctx, f->asan_fake_stack);
  // Resumed — possibly on a different worker thread than the one parked on.
}

void FiberScheduler::dispatch(Fiber* f) {
  WorkerContext& wc = *tl_worker;
  wc.current = f;
  annotated_swap(&wc.asan_fake_stack, f->stack_base, f->stack_bytes, f->tsan_fiber, &wc.ctx,
                 &f->ctx, wc.asan_fake_stack);
  wc.current = nullptr;
}

void FiberScheduler::park(std::unique_lock<std::mutex>& lk) {
  Fiber* f = tl_worker->current;
  {
    // Mark Parking while still holding the site mutex: a waker that pops this
    // fiber from the WaitCv list afterwards is guaranteed to observe Parking
    // or Parked, never Running. Lock order site-mutex -> mu_ matches
    // WaitCv::notify_all -> make_runnable.
    std::lock_guard g(mu_);
    f->state = Fiber::State::Parking;
  }
  lk.unlock();
  switch_to_worker(f, /*dying=*/false);
  lk.lock();
}

void FiberScheduler::yield_current() {
  Fiber* f = tl_worker->current;
  {
    // Parking with wake_pending pre-set: the worker's post-switch finalise
    // re-enqueues immediately — the same path a racing waker takes.
    std::lock_guard g(mu_);
    f->state = Fiber::State::Parking;
    f->wake_pending = true;
  }
  switch_to_worker(f, /*dying=*/false);
}

void FiberScheduler::make_runnable(Fiber* f) {
  bool notify = false;
  {
    std::lock_guard lk(mu_);
    switch (f->state) {
      case Fiber::State::Parked:
        f->state = Fiber::State::Runnable;
        runq_.push_back(f);
        notify = true;
        break;
      case Fiber::State::Parking:
        // Raced with the unlock-then-suspend window: the fiber's worker
        // finalises the park right after its swapcontext and re-enqueues.
      case Fiber::State::Runnable:
      case Fiber::State::Running:
        // Already awake; the woken fiber re-checks its predicate anyway.
        f->wake_pending = true;
        break;
      case Fiber::State::Done: break;
    }
  }
  if (notify) lanes::detail::wake();
}

void FiberScheduler::worker_main() {
  WorkerContext wc;
  worker_stack_bounds(wc);
#ifdef XMP_FIBER_TSAN
  wc.tsan_fiber = __tsan_get_current_fiber();
#endif
  WorkerContext* const outer = tl_worker;
  tl_worker = &wc;
  std::uint32_t seen_pass = 0;
  std::unique_lock lk(mu_);
  while (live_ > 0) {
    if (runq_.empty()) {
      const std::uint32_t seen = lanes::detail::epoch();
      lk.unlock();
      lanes::detail::idle(seen, seen_pass);
      lk.lock();
      continue;
    }
    Fiber* f = runq_.front();
    runq_.pop_front();
    f->state = Fiber::State::Running;
    f->wake_pending = false;
    lk.unlock();
    dispatch(f);
    lk.lock();
    if (f->state == Fiber::State::Parking) {
      if (f->wake_pending) {
        f->wake_pending = false;
        f->state = Fiber::State::Runnable;
        runq_.push_back(f);
      } else {
        f->state = Fiber::State::Parked;
      }
    } else if (f->state == Fiber::State::Done) {
      if (--live_ == 0) lanes::detail::wake();
    }
  }
  tl_worker = outer;
}

void FiberScheduler::run(int nranks, const std::function<void(int)>& body) {
  body_ = &body;
  if (!opts_.guard_pages) {
    slab_bytes_ = static_cast<std::size_t>(nranks) * usable_stack_bytes(opts_);
    void* base =
        mmap(nullptr, slab_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) stack_alloc_failed("slab mmap");
    slab_base_ = static_cast<char*>(base);
  }
  fibers_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) runq_.push_back(make_fiber(r));
  live_ = nranks;
  const int workers = opts_.workers > 0 ? std::min(opts_.workers, nranks) : nranks;
  const lanes::detail::Body worker = [](void* self, int, int) {
    static_cast<FiberScheduler*>(self)->worker_main();
  };
  lanes::detail::run_workers(workers, worker, this);
  body_ = nullptr;
}

// ---- WaitCv (declared in detail.hpp) ----------------------------------------

void WaitCv::wait(std::unique_lock<std::mutex>& lk) {
  Fiber* f = require_rank_fiber();
  waiters.push_back(f);
  f->sched->park(lk);
}

void WaitCv::notify_all() {
  if (waiters.empty()) return;
  // Detach the list first: entries are consumed exactly once, and a woken
  // fiber may re-register into this WaitCv as soon as the caller releases
  // the site mutex.
  std::vector<Fiber*> ws;
  ws.swap(waiters);
  for (Fiber* f : ws) f->sched->make_runnable(f);
}

}  // namespace xmp::detail

namespace xmp::sched {

// The rank context is the fiber that the calling thread's worker runs, so it
// follows the rank across workers.
int current_rank() noexcept {
  const detail::Fiber* f = detail::current_fiber();
  return f ? f->world_rank : -1;
}

std::shared_ptr<void>* rank_local_slot() noexcept {
  detail::Fiber* f = detail::current_fiber();
  return f ? &f->local_slot : nullptr;
}

}  // namespace xmp::sched
