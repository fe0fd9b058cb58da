// Checked-mode overhead smoke: the xmp verifier switched on at run time may
// slow a communication-heavy workload by at most kMaxOverheadPct (and costs
// nothing when off — the hooks are branches on a null checker). Drives 4
// ranks through a mix of allreduces, barriers, ring p2p and gathervs,
// best-of-N wall time with checking off vs on, and prints
// CHECKED_OVERHEAD_PCT for CI to grep. Exits non-zero above the gate.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "xmp/comm.hpp"

namespace {

constexpr int kRanks = 4;
constexpr int kIters = 2000;
constexpr int kRepeats = 5;
// Timing smoke on shared hosts: a 2-vCPU VM reads 8-34% (median 18%).
constexpr double kMaxOverheadPct = 25.0;

void workload(const xmp::CheckOptions& opts) {
  xmp::run(
      kRanks,
      [](xmp::Comm& world) {
        const int next = (world.rank() + 1) % world.size();
        const int prev = (world.rank() + world.size() - 1) % world.size();
        std::vector<double> payload(64, 1.0);
        double acc = 0.0;
        for (int i = 0; i < kIters; ++i) {
          acc += world.allreduce(static_cast<double>(world.rank()), xmp::Op::Sum);
          world.barrier();
          world.send(next, 1, payload);
          acc += world.recv<double>(prev, 1)[0];
          auto all = world.gatherv(std::span<const double>(payload), 0);
          if (world.rank() == 0) acc += all[0];
        }
        if (acc < 0.0) std::abort();  // keep the work observable
      },
      nullptr, opts);
}

double best_of(const xmp::CheckOptions& opts) {
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    workload(opts);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int main() {
  std::printf("=== xmp checked-mode overhead smoke ===\n");

  xmp::CheckOptions off;  // enabled defaults to false

  xmp::CheckOptions on;
  on.enabled = true;
  on.stall_timeout = std::chrono::minutes(10);  // never fires here

  const double t_off = best_of(off);
  const double t_on = best_of(on);
  const double pct = 100.0 * (t_on - t_off) / t_off;

  std::printf("ranks=%d iters=%d repeats=%d (best-of)\n", kRanks, kIters, kRepeats);
  std::printf("unchecked: %.4f s   checked: %.4f s\n", t_off, t_on);
  std::printf("CHECKED_OVERHEAD_PCT=%.2f (max allowed %.1f)\n", pct, kMaxOverheadPct);
  if (pct > kMaxOverheadPct) {
    std::printf("FAIL: checked-mode overhead above threshold\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
