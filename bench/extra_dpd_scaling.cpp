// Distributed-DPD strong scaling: pairs/sec for the same global system
// stepped on 1, 2 and 4 xmp ranks through the exchange layer
// (src/dpd/exchange/). The single-rank baseline is the plain engine with no
// decomposition driver, so the speedup includes every halo/migration
// overhead the distributed path pays. Prints DPD_SCALING_SPEEDUP (4 ranks
// vs 1) for CI to grep and writes BENCH_dpd_scaling.json. Exits non-zero
// when the speedup falls below NEKTARG_DPD_SCALING_MIN_SPEEDUP — unset, the
// gate is a loose 0.0: the rank fibers run on min(cores, 8) worker threads,
// so they only scale with real cores, and dev boxes may have one (CI pins
// 2.0 on its 4-core runners).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "dpd/exchange/distributed.hpp"
#include "dpd/system.hpp"
#include "telemetry/bench_report.hpp"
#include "xmp/comm.hpp"

namespace {

constexpr double kDensity = 3.0;
constexpr int kWarmupSteps = 10;
constexpr int kSteps = 30;
constexpr int kRepeats = 3;

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

/// Best-of-kRepeats wall time for kSteps on `nranks` ranks (1 = plain
/// engine, no driver).
double time_steps(int nranks) {
  double best_ms = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    double ms = 0.0;
    if (nranks == 1) {
      auto sys = make_system();
      for (int s = 0; s < kWarmupSteps; ++s) sys->step();
      const auto t0 = std::chrono::steady_clock::now();
      for (int s = 0; s < kSteps; ++s) sys->step();
      const auto t1 = std::chrono::steady_clock::now();
      ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    } else {
      xmp::run(nranks, [&](xmp::Comm& world) {
        auto sys = make_system();
        dpd::exchange::DistributedDpd drv(world, *sys);
        drv.distribute();
        for (int s = 0; s < kWarmupSteps; ++s) sys->step();
        const auto t0 = std::chrono::steady_clock::now();
        for (int s = 0; s < kSteps; ++s) sys->step();
        const auto t1 = std::chrono::steady_clock::now();
        if (world.rank() == 0)
          ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      });
    }
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

  double min_speedup = 0.0;
  if (const char* env = std::getenv("NEKTARG_DPD_SCALING_MIN_SPEEDUP"))
    min_speedup = std::atof(env);
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2f below gate %.2f\n", speedup, min_speedup);
    return 1;
  }
  return 0;
}
