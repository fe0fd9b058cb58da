// Distributed-DPD strong scaling: pairs/sec for the same global system
// stepped on 1, 2 and 4 xmp ranks through the exchange layer
// (src/dpd/exchange/). The single-rank baseline is the plain engine with no
// decomposition driver, so the speedup includes every halo/migration
// overhead the distributed path pays. Every rank, the baseline's included,
// steps on one lane: a OneLane (one_lane.hpp) keeps every force pass
// inline, so no pass splits over idle cores (xmp/sched/lanes.hpp) and the
// speedup is the ranks' alone. Prints DPD_SCALING_SPEEDUP (4 ranks
// vs 1) for CI to grep and writes BENCH_dpd_scaling.json. Exits non-zero
// when the speedup falls below kMinSpeedup. The gate needs a thread per
// rank: the rank fibers run on min(cores, 8) pool threads, so on fewer
// than 4 hardware threads 4 ranks share the cores and the gate is reported
// as not applicable.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "dpd/exchange/distributed.hpp"
#include "dpd/system.hpp"
#include "one_lane.hpp"
#include "telemetry/bench_report.hpp"
#include "xmp/comm.hpp"

namespace {

constexpr double kDensity = 3.0;
constexpr int kWarmupSteps = 10;
constexpr int kSteps = 30;
constexpr int kRepeats = 3;
constexpr double kMinSpeedup = 2.0;

dpd::DpdParams params() {
  dpd::DpdParams prm;
  prm.box = {16.0, 8.0, 8.0};
  prm.periodic = {true, true, false};
  return prm;
}

std::shared_ptr<dpd::DpdSystem> make_system() {
  const auto prm = params();
  auto sys = std::make_shared<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys->fill(kDensity, dpd::kSolvent, 42);
  sys->set_body_force([](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{0.05, 0.0, 0.0}; });
  return sys;
}

/// fn(world) on `nranks` ranks of a run at the default workers, each
/// rank's force passes inline on one lane.
template <class Fn>
void on_one_lane_each(int nranks, Fn&& fn) {
  const OneLane one;
  xmp::run(nranks, fn, nullptr, xmp::CheckOptions{});
}

/// Best-of-kRepeats wall time for kSteps on `nranks` ranks (1 = plain
/// engine, no driver).
double time_steps(int nranks) {
  double best_ms = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    double ms = 0.0;
    on_one_lane_each(nranks, [&](xmp::Comm& world) {
      auto sys = make_system();
      std::unique_ptr<dpd::exchange::DistributedDpd> drv;
      if (nranks > 1) {
        drv = std::make_unique<dpd::exchange::DistributedDpd>(world, *sys);
        drv->distribute();
      }
      for (int s = 0; s < kWarmupSteps; ++s) sys->step();
      const auto t0 = std::chrono::steady_clock::now();
      for (int s = 0; s < kSteps; ++s) sys->step();
      const auto t1 = std::chrono::steady_clock::now();
      if (world.rank() == 0) ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    });
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

}  // namespace

int main() {
  std::printf("=== Distributed DPD strong scaling (xmp fiber ranks) ===\n");

  // global pair count at rc, for the pairs/sec normalisation
  auto probe = make_system();
  for (int s = 0; s < kWarmupSteps; ++s) probe->step();
  std::size_t pairs = 0;
  probe->for_each_pair([&](std::size_t, std::size_t, const dpd::Vec3&, double) { ++pairs; });
  std::printf("n=%zu global pairs=%zu steps=%d\n", probe->size(), pairs, kSteps);

  telemetry::BenchReport rep("dpd_scaling");
  rep.meta("n", static_cast<double>(probe->size()));
  rep.meta("pairs", static_cast<double>(pairs));
  rep.meta("steps", static_cast<double>(kSteps));

  // 2 force evaluations per step (modified velocity-Verlet predictor pass
  // at step start plus the post-drift pass)
  const double pair_evals = 2.0 * static_cast<double>(pairs) * kSteps;
  double t1 = 0.0, t4 = 0.0;
  std::printf("ranks    time/step    pairs/sec    speedup\n");
  for (int nranks : {1, 2, 4}) {
    const double ms = time_steps(nranks);
    const double pps = pair_evals / (ms * 1e-3);
    if (nranks == 1) t1 = ms;
    if (nranks == 4) t4 = ms;
    std::printf("%5d   %7.2f ms  %10.3e    %6.2f\n", nranks, ms / kSteps, pps, t1 / ms);
    rep.row();
    rep.set("ranks", static_cast<double>(nranks));
    rep.set("best_ms", ms);
    rep.set("pairs_per_sec", pps);
    rep.set("speedup", t1 / ms);
  }

  const double speedup = t1 / t4;
  std::printf("DPD_SCALING_SPEEDUP=%.2f\n", speedup);
  rep.meta("speedup_4r", speedup);
  rep.write();

  // an unknown thread count (0) keeps the gate
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && hw < 4u) {
    std::printf("scaling gate: not applicable (%u hardware threads for 4 ranks; bar %.2f)\n", hw,
                kMinSpeedup);
    return 0;
  }
  std::printf("scaling gate: >= %.2f\n", kMinSpeedup);
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: speedup %.2f below gate %.2f\n", speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}
