// Extra validation (paper Sec. 2, citing Fedosov et al. 2010 "Blood flow
// and cell-free layer in microvessels"): suspended RBCs in a channel flow
// migrate away from the walls, leaving a cell-free layer (CFL) next to
// them — the mechanism behind the Fahraeus-Lindqvist viscosity reduction
// the paper's blood-physiology section describes. This bench measures the
// RBC-bead concentration profile across the channel and reports the CFL
// thickness.

#include <cstdio>
#include <vector>

#include "dpd/geometry.hpp"
#include "dpd/system.hpp"
#include "rbc/bonds.hpp"
#include "telemetry/bench_report.hpp"

int main() {
  std::printf("=== Cell-free layer in a DPD RBC suspension ===\n\n");

  dpd::DpdParams prm;
  prm.box = {20.0, 6.0, 10.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.005;
  const double H = 10.0;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(H));
  sys.fill(3.0, dpd::kSolvent, 3, 0.1);

  auto bonds = std::make_shared<dpd::BondSet>();
  sys.add_module(bonds);
  int n_cells = 0;
  for (double cx : {2.5, 7.5, 12.5, 17.5})
    for (double cz : {3.3, 6.7}) {
      dpd::RbcRingParams rp;
      rp.center = {cx, 3.0, cz};
      rp.radius = 1.3;
      rp.beads = 14;
      rp.k_spring = 80.0;
      rp.k_bend = 20.0;
      dpd::make_rbc_ring(sys, *bonds, rp);
      ++n_cells;
    }
  std::printf("%d RBC rings suspended among %zu particles\n", n_cells, sys.size());

  sys.set_body_force([](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{0.08, 0, 0}; });
  for (int s = 0; s < 3000; ++s) sys.step();  // let cells migrate

  // RBC bead concentration vs z, accumulated over a window
  constexpr int kBins = 20;
  std::vector<double> rbc(kBins, 0.0), all(kBins, 0.0);
  for (int s = 0; s < 2000; ++s) {
    sys.step();
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const int b = std::clamp(static_cast<int>(sys.positions()[i].z / H * kBins), 0,
                               kBins - 1);
      all[static_cast<std::size_t>(b)] += 1.0;
      if (sys.species()[i] == dpd::kRbcBead) rbc[static_cast<std::size_t>(b)] += 1.0;
    }
  }

  double core = 0.0;
  for (int b = kBins / 2 - 2; b < kBins / 2 + 2; ++b) core += rbc[static_cast<std::size_t>(b)];
  core /= 4.0;

  telemetry::BenchReport rep("extra_cell_free_layer");
  rep.meta("rbc_rings", static_cast<double>(n_cells));
  rep.meta("channel_height", H);
  std::printf("\n%-10s %-14s %-12s\n", "z", "RBC fraction", "profile");
  for (int b = 0; b < kBins; ++b) {
    const double frac = all[static_cast<std::size_t>(b)] > 0
                            ? rbc[static_cast<std::size_t>(b)] / all[static_cast<std::size_t>(b)]
                            : 0.0;
    std::printf("%-10.2f %-14.4f ", (b + 0.5) * H / kBins, frac);
    const int bars = static_cast<int>(frac * 120);
    for (int q = 0; q < bars && q < 40; ++q) std::printf("#");
    std::printf("\n");
    rep.row();
    rep.set("z", (b + 0.5) * H / kBins);
    rep.set("rbc_fraction", frac);
  }

  // CFL thickness: distance from the wall to the first bin with >= 50% of
  // the core RBC concentration
  auto cfl = [&](bool top) {
    for (int k = 0; k < kBins / 2; ++k) {
      const int b = top ? kBins - 1 - k : k;
      if (rbc[static_cast<std::size_t>(b)] >= 0.5 * core)
        return (static_cast<double>(k) + 0.5) * H / kBins;
    }
    return 0.5 * H;
  };
  const double cfl_bot = cfl(false), cfl_top = cfl(true);
  std::printf("\ncell-free layer thickness: bottom %.2f rc, top %.2f rc (channel H = %.0f)\n",
              cfl_bot, cfl_top, H);
  std::printf("(expected: CFL > 0 on both walls — cells migrate to the core, as in the\n"
              " microvessel experiments/simulations the paper builds on)\n");
  rep.meta("cfl_bottom", cfl_bot);
  rep.meta("cfl_top", cfl_top);
  rep.write();
  return (cfl_bot > 0.0 && cfl_top > 0.0) ? 0 : 1;
}
