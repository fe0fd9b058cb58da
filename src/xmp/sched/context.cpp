#include "xmp/sched/sched.hpp"

namespace xmp::sched {

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

}  // namespace xmp::sched
