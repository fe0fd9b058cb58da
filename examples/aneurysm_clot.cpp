// Example: the paper's headline scenario at laptop scale — blood flow over
// an aneurysm-like cavity with platelet-driven thrombus formation.
//
// The continuum patch is a channel with a side cavity (the sac); the DPD
// domain covers the sac and the channel segment beneath it; platelets that
// dwell near the damaged sac wall trigger, activate after a delay, arrest,
// and aggregate into a growing clot (Sec. 2 + Fig. 10 physics). The stack is
// scenario::aneurysm_preset (Fig. 10's run) with a pulsatile inlet, run by
// scenario::Runner.
//
// Run: ./build/examples/aneurysm_clot

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "sem/operators.hpp"

int main() {
  std::printf("Aneurysm clotting demo: coupled continuum-atomistic simulation\n\n");

  scenario::Scenario sc = scenario::aneurysm_preset();
  sc.sem.inlet_pulse = 0.3;
  sc.platelets = {50, 1.0, 2.0, 0.8};
  sc.time.develop_steps = 200;
  sc.time.intervals = 30;
  scenario::Runner runner(sc);
  runner.build();
  std::printf("continuum: channel+cavity, %zu SEM nodes; developing flow...\n",
              runner.sem_nodes());
  // flow inside the sac is slow compared to the channel: the clot condition
  std::printf("  channel centerline u = %.3f, sac u = %.3f (stagnant: clotting risk)\n\n",
              runner.eval_u(4.0, 0.5), runner.eval_u(4.0, 1.5));

  const auto& sys = runner.dpd();
  const auto& platelets = runner.platelets();
  std::printf("atomistic: %zu particles incl. %zu platelets\n\n", sys.size(),
              platelets.total());

  std::printf("%-10s %-8s %-7s | clot profile along the sac wall\n", "DPD time", "active",
              "bound");
  for (int block = 0; block < 6; ++block) {
    runner.advance(5);
    // crude rendering: bound platelets per x-slab of the sac
    int slab[10] = {};
    for (std::size_t i = 0; i < platelets.total(); ++i) {
      if (platelets.state_of(i) != dpd::PlateletState::Bound) continue;
      const long li = sys.local_of(platelets.particles()[i]);
      if (li < 0) continue;
      const auto& p = sys.positions()[static_cast<std::size_t>(li)];
      const int sbin = std::clamp(static_cast<int>(p.x / 2.0), 0, 9);
      slab[sbin]++;
    }
    std::printf("%-10.1f %-8zu %-7zu | ", sys.time(),
                platelets.count(dpd::PlateletState::Active),
                platelets.count(dpd::PlateletState::Bound));
    for (int sbin = 0; sbin < 10; ++sbin)
      std::printf("%c", slab[sbin] == 0 ? '.' : slab[sbin] < 3 ? '+' : '#');
    std::printf("\n");
  }
  std::printf("\n('#' slabs mark the thrombus; it nucleates inside the sac (x ~ 6-14)\n"
              " where the adhesive wall and the stagnant flow coincide)\n");

  // wall shear stress along the walls (the paper: mean WSS is "a very
  // important quantity in biological flows"); the sac walls should carry far
  // lower WSS than the channel walls — the clotting-risk signature
  const auto& ns = runner.ns2d();
  const auto& d = ns.disc();
  sem::Operators ops(d);
  auto tau = ops.wall_shear_stress(ns.u(), ns.v(), sc.sem.nu, mesh::kWall);
  const auto& wall_nodes = d.boundary_nodes(mesh::kWall);
  double wss_channel = 0.0, wss_sac = 0.0;
  std::size_t nc = 0, nsac = 0;
  for (std::size_t k = 0; k < wall_nodes.size(); ++k) {
    const double y = d.node_y(wall_nodes[k]);
    if (y == 0.0) {
      wss_channel += std::fabs(tau[k]);
      ++nc;
    } else if (y > 1.5) {
      wss_sac += std::fabs(tau[k]);
      ++nsac;
    }
  }
  std::printf("\nmean |WSS|: channel floor %.4f vs aneurysm dome %.4f (ratio %.1fx)\n",
              wss_channel / nc, wss_sac / nsac, (wss_channel / nc) / (wss_sac / nsac + 1e-12));
  return 0;
}
