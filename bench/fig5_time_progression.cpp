// Fig. 5 reproduction: the coupled time-progression schedule. The paper
// sets dt_NS = 20 dt_DPD and exchanges boundary conditions every
// tau = 10 dt_NS = 200 dt_DPD (~0.0344 s). This bench drives the *real*
// coupled solver (SEM Navier-Stokes + DPD) through three coupling intervals
// and prints the realised ledger: when each solver stepped and when the
// exchanges fired.

#include <cstdio>

#include "coupling/cdc.hpp"
#include "coupling/scales.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/system.hpp"
#include "mesh/quadmesh.hpp"
#include "sem/navier_stokes.hpp"
#include "telemetry/bench_report.hpp"

int main() {
  std::printf("=== Fig. 5: time progression in the coupled solver ===\n");
  std::printf("(paper: dt_NS = 20 dt_DPD, exchange every tau = 10 dt_NS = 200 dt_DPD)\n\n");

  auto m = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Operators>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Operators> ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);

  dpd::DpdParams dp;
  dp.box = {12.0, 5.0, 8.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(8.0));
  sys.fill(3.0, dpd::kSolvent, 4, 0.1);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  dpd::FlowBc bc(fp);

  coupling::ScaleMap scales;
  scales.L_ns = 1.0;
  scales.L_dpd = 8.0;
  scales.nu_ns = 0.05;
  scales.nu_dpd = 1.0;
  coupling::TimeProgression tp;  // paper defaults: 10 NS steps, 20 DPD per NS
  tp.dt_ns = nsp.dt;
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, {1.5, 2.5, 0.0, 1.0}, scales, tp);

  std::printf("schedule: tau = %d NS steps = %d DPD steps; tau_NS = %.4f (NS time units)\n\n",
              tp.exchange_every_ns, tp.dpd_steps_per_exchange(), tp.tau_ns());
  telemetry::BenchReport rep("fig5_time_progression");
  rep.meta("exchange_every_ns", static_cast<double>(tp.exchange_every_ns));
  rep.meta("dpd_per_ns", static_cast<double>(tp.dpd_per_ns));
  rep.meta("tau_ns", tp.tau_ns());
  std::printf("%-10s %-14s %-14s %-12s\n", "interval", "NS steps done", "DPD steps done",
              "exchanges");
  for (int interval = 1; interval <= 3; ++interval) {
    cdc.advance_interval();
    const double ns_steps = ns.time() / nsp.dt;
    const auto dpd_steps = static_cast<double>(sys.step_count());
    std::printf("%-10d %-14.0f %-14.0f %-12zu\n", interval, ns_steps, dpd_steps,
                cdc.exchanges());
    rep.row();
    rep.set("interval", static_cast<double>(interval));
    rep.set("ns_steps", ns_steps);
    rep.set("dpd_steps", dpd_steps);
    rep.set("exchanges", static_cast<double>(cdc.exchanges()));
  }
  const bool ok = sys.step_count() == 3ull * tp.dpd_steps_per_exchange() &&
                  cdc.exchanges() == 3;
  const double realised_ratio =
      static_cast<double>(sys.step_count()) / (ns.time() / nsp.dt);
  std::printf("\nrealised ratio: %llu DPD steps / %.0f NS steps = %.1f (target %d)  [%s]\n",
              static_cast<unsigned long long>(sys.step_count()), ns.time() / nsp.dt,
              realised_ratio, tp.dpd_per_ns, ok ? "OK" : "MISMATCH");
  rep.meta("realised_ratio", realised_ratio);
  rep.meta("ok", std::string(ok ? "true" : "false"));
  rep.write();
  return ok ? 0 : 1;
}
