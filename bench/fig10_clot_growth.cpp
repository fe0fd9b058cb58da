// Fig. 10 reproduction: platelet aggregation on the aneurysm wall in the
// coupled continuum-atomistic simulation. A DPD channel-with-cavity domain
// (the aneurysm sac) is driven by the continuum channel flow; platelets that
// linger near the damaged cavity wall trigger, activate after the delay
// time, and arrest — yellow (active) and red (inactive) spheres in the
// paper's rendering. The output is the thrombus growth curve: bound
// platelets vs time, for two activation delays (the Pivkin et al. knob the
// model inherits).

#include <cstdio>

#include "coupling/cdc.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/platelets.hpp"
#include "dpd/system.hpp"
#include "mesh/quadmesh.hpp"
#include "sem/navier_stokes.hpp"
#include "telemetry/bench_report.hpp"

namespace {

void run_clot(double activation_delay, telemetry::BenchReport& rep) {
  // continuum: channel with an aneurysm-like cavity (Re ~ a few hundred,
  // scaled down; flow over the cavity mouth leaves the sac slow - the clot
  // nucleation condition)
  auto m = mesh::QuadMesh::channel_with_cavity(8.0, 1.0, 3.0, 5.0, 1.0, 16, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Operators>::Params nsp;
  nsp.nu = 0.02;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Operators> ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 150; ++s) ns.step();

  // atomistic: the cavity region, DPD units (cavity = upper half of the box)
  dpd::DpdParams dp;
  dp.box = {20.0, 5.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  auto geom = std::make_shared<dpd::ChannelWithCavityZ>(5.0, 6.0, 14.0, 5.0);
  dpd::DpdSystem sys(dp, geom);
  sys.fill(3.0, dpd::kSolvent, 41, 0.1);

  dpd::PlateletParams pp;
  // damaged endothelium: the cavity walls (above the channel roof level)
  pp.adhesive_region = [](const dpd::Vec3& p) { return p.z > 5.0; };
  pp.trigger_distance = 1.2;
  pp.activation_delay = activation_delay;
  pp.bind_distance = 0.8;
  pp.bind_speed = 1.2;
  auto platelets = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(platelets);
  platelets->seed_platelets(sys, 60, 5);

  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);

  // DPD box spans NS x in [2,6] (cavity mouth 3..5), z -> full height incl sac
  coupling::ScaleMap scales;
  scales.L_ns = 1.0;
  scales.L_dpd = 5.0;  // channel height
  scales.nu_ns = 0.02;
  scales.nu_dpd = 0.4;
  coupling::TimeProgression tp;
  tp.dt_ns = nsp.dt;
  tp.exchange_every_ns = 5;
  tp.dpd_per_ns = 10;
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, {2.0, 6.0, 0.0, 2.0}, scales, tp);

  std::printf("activation delay = %.1f (DPD time units):\n", activation_delay);
  std::printf("  %-10s %-9s %-10s %-8s %-7s\n", "DPD time", "passive", "triggered",
              "active", "bound");
  for (int block = 0; block < 8; ++block) {
    for (int interval = 0; interval < 4; ++interval)
      cdc.advance_interval([&] { platelets->update(sys); });
    const std::size_t passive = platelets->count(dpd::PlateletState::Passive);
    const std::size_t triggered = platelets->count(dpd::PlateletState::Triggered);
    const std::size_t active = platelets->count(dpd::PlateletState::Active);
    const std::size_t bound = platelets->count(dpd::PlateletState::Bound);
    std::printf("  %-10.1f %-9zu %-10zu %-8zu %-7zu\n", sys.time(), passive, triggered, active,
                bound);
    rep.row();
    rep.set("activation_delay", activation_delay);
    rep.set("dpd_time", sys.time());
    rep.set("passive", static_cast<double>(passive));
    rep.set("triggered", static_cast<double>(triggered));
    rep.set("active", static_cast<double>(active));
    rep.set("bound", static_cast<double>(bound));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Fig. 10: platelet aggregation on the aneurysm wall ===\n");
  std::printf("(expected: bound count grows as platelets entering the sac activate and\n");
  std::printf(" arrest, then saturates; longer activation delay slows the growth)\n\n");
  telemetry::BenchReport rep("fig10_clot_growth");
  rep.meta("platelets", 60.0);
  run_clot(1.0, rep);
  run_clot(6.0, rep);
  rep.write();
  return 0;
}
