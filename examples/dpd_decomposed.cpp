// Distributed DPD demo and the scale-smoke equivalence check: the same
// quickstart-scale channel is stepped once on a single rank and once
// decomposed over N xmp ranks (src/dpd/exchange/), and the two trajectory
// digests are compared. They must be *bitwise* equal — any divergence is an
// exchange bug, and the binary exits non-zero so CI catches it. The digest
// does not depend on the fiber worker count (SchedOptions::workers). The
// rebuild cadence is checked the same way: the single-rank Verlet list's
// builds must equal rank 0's layout builds (distribute() plus every
// relayout), because both follow the list's one skin/2 rule.
//
// Build & run:  cmake --build build && ./build/examples/dpd_decomposed
//
// Flags (scenario::Flags; a bad value exits 2):
//   --ranks N   decomposed rank count, >= 1 (default 4)
//   --steps N   DPD steps (default 50)
//   --overlap   overlap the halo refresh with interior pair computation
//               (DistOptions::overlap); the digest gate is unchanged —
//               the overlapped path is bitwise trajectory-neutral

#include <cstdio>
#include <cstdint>
#include <memory>

#include "dpd/exchange/distributed.hpp"
#include "dpd/system.hpp"
#include "scenario/flags.hpp"
#include "xmp/comm.hpp"

namespace {

std::shared_ptr<dpd::DpdSystem> make_system() {
  dpd::DpdParams prm;
  prm.box = {16.0, 8.0, 8.0};
  prm.periodic = {true, true, false};
  auto sys = std::make_shared<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys->fill(3.0, dpd::kSolvent, 42);
  sys->set_body_force([](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{0.05, 0.0, 0.0}; });
  return sys;
}

}  // namespace

int main(int argc, char** argv) {
  int ranks = 4;
  int steps = 50;
  bool overlap = false;
  scenario::Flags flags("dpd_decomposed");
  flags.add_int("--ranks", &ranks, "decomposed rank count (default 4)", 1);
  flags.add_int("--steps", &steps, "DPD steps (default 50)");
  flags.add_flag("--overlap", &overlap, "overlap the halo refresh with interior pairs");
  if (!flags.parse(argc, argv)) return 2;

  auto single = make_system();
  std::printf("dpd_decomposed: n=%zu steps=%d ranks=%d overlap=%s\n", single->size(), steps,
              ranks, overlap ? "on" : "off");
  for (int s = 0; s < steps; ++s) single->step();
  const std::uint64_t ref = dpd::exchange::trajectory_digest(*single);
  const std::uint64_t ref_builds = single->neighbor_list().rebuilds();
  std::printf("single-rank digest:  %016llx\n", static_cast<unsigned long long>(ref));

  std::uint64_t dist = 0, dist_builds = 0;
  xmp::run(ranks, [&](xmp::Comm& world) {
    auto sys = make_system();
    dpd::exchange::DistOptions opt;
    opt.overlap = overlap;
    dpd::exchange::DistributedDpd drv(world, *sys, opt);
    drv.distribute();
    for (int s = 0; s < steps; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    if (world.rank() == 0) {
      dist = d;
      dist_builds = 1 + drv.rebuilds();
      const auto dims = drv.decomposition().dims();
      std::printf("%d-rank digest (%dx%dx%d grid): %016llx\n", ranks, dims.px, dims.py,
                  dims.pz, static_cast<unsigned long long>(d));
    }
  });

  std::printf("single-rank Verlet builds: %llu\n", static_cast<unsigned long long>(ref_builds));
  std::printf("%d-rank layout builds:     %llu\n", ranks,
              static_cast<unsigned long long>(dist_builds));

  if (dist != ref) {
    std::fprintf(stderr, "FAIL: decomposed trajectory diverged from the single-rank run\n");
    return 1;
  }
  if (dist_builds != ref_builds) {
    std::fprintf(stderr, "FAIL: decomposed rebuild cadence differs from the single-rank run\n");
    return 1;
  }
  std::printf("OK: %d-rank run is bitwise equal to the single-rank run, rebuilds included\n",
              ranks);
  return 0;
}
