#pragma once
// Fork-join lanes on the process's one thread pool.
//
// A lane pass splits one data-parallel loop of the calling thread: lane 0
// runs on the caller, lanes 1.. on whichever threads join it. The pool
// (lanes.cpp) has at most min(affinity mask CPUs, kMaxLanes) threads, a
// caller counted, started with the first pass or xmp::run that can use them.
// An xmp::run is a fork-join on the same rule, its lanes the run's workers
// (sched/fiber.hpp); a worker with no fiber to run, and a pool thread with
// neither, joins an open pass, else polls briefly and sleeps on a futex.
// Nothing waits for a thread that did not join before lane 0 returned: the
// lanes claim their work as they go, and lane 0 alone must finish it.
//
// The width is derived, never set: the caller plus the threads free to
// join, or 1 while another pass is in flight (a pass started then runs
// inline). Outside xmp::run, and on the one rank of a 1-rank run, that is
// every core up to the cap.
//
// The pool allocates nothing per pass and lane bodies must make no xmp or
// telemetry call: they run on threads that are not ranks. Callers keep
// their results independent of the lanes by computing per lane and
// combining in a fixed order (docs/PERF.md "Intra-rank lanes"):
//   * DPD: dpd::NeighborList::build's candidate scan, the DPD pair pass and
//     dpd::FlowBc's buffer relax (one particle per update, any size);
//   * SEM, through sem/split.hpp on fields of sem::kSplitNodes nodes and
//     more: sem::Operators' element sweeps (apply_helmholtz,
//     apply_stiffness, gradient) and the fast-diagonalisation transforms
//     of sem::HelmholtzSolver.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace xmp::lanes {

/// The most threads the pool runs, a caller included, so the most lanes a
/// pass and the most workers a run gets. Only 2 lanes have been measured
/// (docs/PERF.md "Intra-rank lanes"); each adds per-lane build counts.
inline constexpr int kMaxLanes = 8;

/// Lanes a pass started here now would get.
int width() noexcept;

/// Chunks per lane a pass splits its work into. The lanes claim chunks as
/// they go, so a lane on a slower or busier core simply takes fewer.
inline constexpr int kChunksPerLane = 32;

/// What a pass used: the lanes that ran, [0, lanes), and the seconds lane 0
/// waited at the join for the helpers that joined.
struct Pass {
  int lanes = 1;
  double wait_s = 0.0;
};

namespace detail {
using Body = void (*)(void* ctx, int lane, int most);
Pass run(int want, Body body, void* ctx);
// xmp::run's side of the pool (sched/fiber.cpp): run_workers calls
// worker(ctx, lane, most) on the caller, lane 0, and on up to workers - 1
// pool threads that join; a worker with no fiber to run calls
// idle(epoch() read under its run's lock, its last pass), which joins an
// open lane pass or waits for wake().
void run_workers(int workers, Body worker, void* ctx);
std::uint32_t epoch() noexcept;
void idle(std::uint32_t seen, std::uint32_t& seen_pass);
void wake() noexcept;
}  // namespace detail

/// Calls fn(lane, most) on lane 0, the calling thread, and on every pool
/// thread that joins before lane 0 returns, numbered 1.. in join order;
/// most is min(want, width()), or 1 while another pass is in flight, and no
/// lane numbers most or more. Returns once every lane that ran has
/// returned. An exception from a lane is rethrown here (lane 0's first,
/// then the lowest joined lane's).
template <class Fn>
Pass run(int want, Fn& fn) {
  return detail::run(
      want, [](void* ctx, int lane, int most) { (*static_cast<Fn*>(ctx))(lane, most); }, &fn);
}

/// Calls fn(lo, hi, lane) on the chunks [lo, hi) of [0, n) that each lane of
/// one pass claims, kChunksPerLane per lane of `want`; want <= 1 makes the
/// one call fn(0, n, 0) inline. Every index lands in exactly one chunk, and
/// the chunks depend on want and n only, never on the lanes that joined.
template <class Fn>
Pass for_chunks(int want, std::size_t n, Fn& fn) {
  if (want <= 1) {
    fn(std::size_t{0}, n, 0);
    return {};
  }
  const std::size_t chunks = std::min(n, static_cast<std::size_t>(kChunksPerLane * want));
  std::atomic<std::size_t> next{0};
  auto body = [&](int lane, int) {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = next.fetch_add(1, std::memory_order_relaxed))
      fn(n * c / chunks, n * (c + 1) / chunks, lane);
  };
  return run(want, body);
}

}  // namespace xmp::lanes
