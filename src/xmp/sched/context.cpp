#include "xmp/sched/sched.hpp"

#include "xmp/env.hpp"

namespace xmp {

SchedOptions SchedOptions::from_env() {
  SchedOptions o;
  if (auto v = detail::env_int("XMP_SCHED_WORKERS", 0, 1024)) o.workers = static_cast<int>(*v);
  if (auto v = detail::env_int("XMP_SCHED_STACK_KB", 16, 1 << 20))
    o.stack_kb = static_cast<int>(*v);
  if (auto v = detail::env_flag("XMP_SCHED_GUARD")) o.guard_pages = *v;
  return o;
}

namespace sched {

namespace {
// The one place rank identity is allowed to live in a thread-local: the
// fiber scheduler rewrites both on every fiber switch, so they track the
// rank, not the OS thread.
// analyze: sched-context-ok (this is the scheduler context itself)
thread_local int tl_current_rank = -1;
// analyze: sched-context-ok (this is the scheduler context itself)
thread_local std::shared_ptr<void>* tl_rank_slot = nullptr;
}  // namespace

int current_rank() noexcept { return tl_current_rank; }
std::shared_ptr<void>* rank_local_slot() noexcept { return tl_rank_slot; }

namespace detail {
void set_current_rank(int r) noexcept { tl_current_rank = r; }
void set_rank_local_slot(std::shared_ptr<void>* slot) noexcept { tl_rank_slot = slot; }
}  // namespace detail

}  // namespace sched
}  // namespace xmp
