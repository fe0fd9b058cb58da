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
#include <charconv>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

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

/// Flags accepted by table3/4/5: --ranks=N turns on the measured execution,
/// --workers=N / --stack-kb=N / --no-guard-pages configure the fiber
/// scheduler, --patches/--steps/--iters size the skeleton. Unknown flags and
/// malformed or out-of-range values fail loudly so CI typos don't silently
/// run the wrong config.
struct ScalingCli {
  int ranks = 0;  ///< 0: modeled tables only (default)
  int patches = 4;
  int steps = 3;
  int iters = 5;
  xmp::SchedOptions sched;
};

/// Parse the value of --`flag` as a base-10 integer in [lo, hi] spanning the
/// whole string: "4k", "+4", " 4" and "x" are rejected, not read as 4 or 0.
inline bool parse_int_flag(const char* flag, const std::string& text, int lo, int hi,
                           int& out) {
  int v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    std::fprintf(stderr, "invalid --%s '%s': expected an integer in [%d, %d]\n", flag,
                 text.c_str(), lo, hi);
    return false;
  }
  out = v;
  return true;
}

inline bool parse_scaling_cli(int argc, char** argv, ScalingCli& cli) {
  constexpr int kMax = std::numeric_limits<int>::max();
  auto value_of = [&](const std::string& arg, const char* name, int& i,
                      std::string& out) -> bool {
    const std::string flag = std::string("--") + name;
    if (arg == flag) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    }
    if (arg.rfind(flag + "=", 0) == 0) {
      out = arg.substr(flag.size() + 1);
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    bool ok = true;
    if (value_of(arg, "ranks", i, v)) {
      ok = parse_int_flag("ranks", v, 0, kMax, cli.ranks);
    } else if (value_of(arg, "patches", i, v)) {
      ok = parse_int_flag("patches", v, 1, kMax, cli.patches);
    } else if (value_of(arg, "steps", i, v)) {
      ok = parse_int_flag("steps", v, 1, kMax, cli.steps);
    } else if (value_of(arg, "iters", i, v)) {
      ok = parse_int_flag("iters", v, 1, kMax, cli.iters);
    } else if (value_of(arg, "workers", i, v)) {
      // the XMP_SCHED_WORKERS / XMP_SCHED_STACK_KB ranges
      ok = parse_int_flag("workers", v, 0, 1024, cli.sched.workers);
    } else if (value_of(arg, "stack-kb", i, v)) {
      ok = parse_int_flag("stack-kb", v, 16, 1 << 20, cli.sched.stack_kb);
    } else if (arg == "--no-guard-pages") {
      cli.sched.guard_pages = false;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\nusage: %s [--ranks=N] [--workers=N] [--stack-kb=N] "
                   "[--no-guard-pages] [--patches=N] [--steps=N] [--iters=N]\n",
                   arg.c_str(), argv[0]);
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

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
