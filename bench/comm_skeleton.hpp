#pragma once
// Real-execution communication skeleton behind the --ranks mode of the
// Table 3-5 scaling benches.
//
// The modeled tables replay schedules through the machine:: cost model; this
// skeleton actually *executes* the same communication shape through the xmp
// runtime — hierarchical split into patches (MCI L2/L3), a per-iteration
// ring halo exchange plus CG-style allreduce inside each patch, and a
// per-step interface exchange between adjacent patch roots (Sec. 3.2's
// 3-step pattern, collapsed to the root p2p leg). Ranks are xmp fibers, so
// this runs at the paper's real rank counts — 4k-64k ranks in one process —
// and the benches can report measured wall-clock next to the modeled numbers.
//
// Absolute measured times are in-process memcpy speeds, not BG/P link
// speeds; the point of the measured column is that the runtime genuinely
// executes the schedule at scale (rank counts, message counts, collective
// structure), not that the two columns agree in seconds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "scenario/flags.hpp"
#include "telemetry/bench_report.hpp"
#include "xmp/comm.hpp"

namespace scaling {

struct SkeletonConfig {
  int ranks = 0;
  int patches = 4;           ///< hierarchical split arms (MCI task groups)
  int steps = 3;             ///< outer time steps
  int iters_per_step = 5;    ///< CG iterations (halo + allreduce) per step
  std::size_t halo_doubles = 256;    ///< per-neighbour halo payload
  std::size_t iface_doubles = 4096;  ///< patch-root interface payload
  xmp::SchedOptions sched;
};

struct SkeletonResult {
  double seconds = 0.0;   ///< wall-clock for the whole xmp::run
  double checksum = 0.0;  ///< world allreduce result (keeps work honest)
};

/// Execute the skeleton; every rank runs the full step loop.
inline SkeletonResult run_comm_skeleton(const SkeletonConfig& cfg) {
  const int patches = std::max(1, std::min(cfg.patches, cfg.ranks));
  const int per_patch = std::max(1, cfg.ranks / patches);
  SkeletonResult res;
  const auto t0 = std::chrono::steady_clock::now();
  xmp::run(
      cfg.ranks,
      [&](xmp::Comm& world) {
        const int w = world.rank();
        const int patch = std::min(w / per_patch, patches - 1);
        // L2/L3 split: one communicator per patch, rank order preserved.
        xmp::Comm pc = world.split(patch, w);
        const int pr = pc.rank(), pn = pc.size();
        std::vector<double> halo(cfg.halo_doubles, 1.0 + 1e-3 * w);
        double local = 1.0 + 1e-6 * w;
        for (int step = 0; step < cfg.steps; ++step) {
          for (int it = 0; it < cfg.iters_per_step; ++it) {
            if (pn > 1) {
              // ring halo: both faces posted, then both received (sends are
              // buffered, so this cannot deadlock)
              const int right = (pr + 1) % pn, left = (pr + pn - 1) % pn;
              pc.send(right, /*tag=*/it, halo);
              pc.send(left, /*tag=*/it, halo);
              auto a = pc.recv<double>(left, it);
              auto b = pc.recv<double>(right, it);
              local += a[0] + b[0];
            }
            local = pc.allreduce(local, xmp::Op::Sum) / pn;  // CG dot product
          }
          // interface exchange between adjacent patch roots on the world comm
          if (pr == 0 && patches > 1) {
            std::vector<double> iface(cfg.iface_doubles, local);
            const int next_root = (patch + 1) % patches * per_patch;
            const int prev_root = (patch + patches - 1) % patches * per_patch;
            world.send(next_root, /*tag=*/1000 + step, iface);
            world.send(prev_root, /*tag=*/2000 + step, iface);
            auto from_prev = world.recv<double>(prev_root, 1000 + step);
            auto from_next = world.recv<double>(next_root, 2000 + step);
            local += from_prev[0] + from_next[0];
          }
          world.barrier();
        }
        const double sum = world.allreduce(local, xmp::Op::Sum);
        if (w == 0) res.checksum = sum;
      },
      /*trace=*/nullptr, xmp::CheckOptions{}, cfg.sched);
  res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return res;
}

// ---------------------------------------------------------------------------
// Shared CLI for the scaling benches
// ---------------------------------------------------------------------------

/// Flags accepted by table3/4/5, parsed by scenario::Flags (`--ranks N` or
/// `--ranks=N`): --ranks turns on the measured execution, --workers /
/// --stack-kb / --no-guard-pages configure the fiber scheduler,
/// --patches/--steps/--iters size the skeleton. Unknown flags and malformed
/// or out-of-range values exit 2 so CI typos don't silently run the wrong
/// config.
struct ScalingCli {
  int ranks = 0;  ///< 0: modeled tables only (default)
  int patches = 4;
  int steps = 3;
  int iters = 5;
  xmp::SchedOptions sched;

  /// False (after a diagnostic and the usage on stderr) on a bad command line.
  bool parse(int argc, char** argv, const char* prog) {
    bool no_guard_pages = false;
    scenario::Flags flags(prog);
    flags.add_int("--ranks", &ranks, "fiber ranks of the measured execution (0 = off)");
    flags.add_int("--patches", &patches, "patches (MCI task groups)", 1);
    flags.add_int("--steps", &steps, "outer time steps", 1);
    flags.add_int("--iters", &iters, "CG iterations per step", 1);
    // the XMP_SCHED_WORKERS / XMP_SCHED_STACK_KB ranges
    flags.add_int("--workers", &sched.workers, "fiber worker threads (0 = auto)", 0, 1024);
    flags.add_int("--stack-kb", &sched.stack_kb, "fiber stack size in KiB", 16, 1 << 20);
    flags.add_flag("--no-guard-pages", &no_guard_pages, "fiber stacks without guard pages");
    if (!flags.parse(argc, argv)) return false;
    sched.guard_pages = !no_guard_pages;
    return true;
  }
};

/// Run the measured execution for one bench and print/report it next to the
/// modeled per-step time. The caller's report name must start with
/// "scaling_" — CI uploads BENCH_scaling_*.json from the scale-smoke job.
inline void run_measured_scaling(const ScalingCli& cli, double modeled_s_per_step,
                                 telemetry::BenchReport& rep) {
  SkeletonConfig cfg;
  cfg.ranks = cli.ranks;
  cfg.patches = cli.patches;
  cfg.steps = cli.steps;
  cfg.iters_per_step = cli.iters;
  cfg.sched = cli.sched;
  std::printf("--- measured execution: %d fiber ranks ---\n", cfg.ranks);
  const auto r = run_comm_skeleton(cfg);
  const double per_step = r.seconds / cfg.steps;
  std::printf("%d ranks x %d patches, %d steps x %d iters: %.3f s wall "
              "(%.4f s/step; modeled machine %.4f s/step)\n",
              cfg.ranks, cfg.patches, cfg.steps, cfg.iters_per_step, r.seconds, per_step,
              modeled_s_per_step);
  rep.row();
  rep.set("ranks", static_cast<double>(cfg.ranks));
  rep.set("patches", static_cast<double>(cfg.patches));
  rep.set("steps", static_cast<double>(cfg.steps));
  rep.set("iters_per_step", static_cast<double>(cfg.iters_per_step));
  rep.set("workers", static_cast<double>(cfg.sched.workers));
  rep.set("measured_s", r.seconds);
  rep.set("measured_s_per_step", per_step);
  rep.set("modeled_s_per_step", modeled_s_per_step);
  rep.set("checksum", r.checksum);
}

}  // namespace scaling
