// Fig. 5 reproduction: the coupled time-progression schedule. The paper
// sets dt_NS = 20 dt_DPD and exchanges boundary conditions every
// tau = 10 dt_NS = 200 dt_DPD (~0.0344 s). This bench drives the *real*
// coupled solver (SEM Navier-Stokes + DPD, built by scenario::Runner from the
// quickstart preset on the paper's schedule) through three coupling intervals
// and prints the realised ledger: when each solver stepped and when the
// exchanges fired.

#include <cstdio>

#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "telemetry/bench_report.hpp"

int main() {
  std::printf("=== Fig. 5: time progression in the coupled solver ===\n");
  std::printf("(paper: dt_NS = 20 dt_DPD, exchange every tau = 10 dt_NS = 200 dt_DPD)\n\n");

  scenario::Scenario sc = scenario::quickstart_preset();
  sc.dpd.box = {12.0, 5.0, 8.0};
  sc.dpd.geometry.height = 8.0;
  sc.dpd.seed = 4;
  sc.flow_bc.relax = 0.2;
  sc.coupling.scales.L_dpd = 8.0;
  sc.coupling.scales.nu_dpd = 1.0;
  coupling::TimeProgression tp;  // paper defaults: 10 NS steps, 20 DPD per NS
  tp.dt_ns = sc.sem.dt;
  sc.coupling.exchange_every_ns = tp.exchange_every_ns;
  sc.coupling.dpd_per_ns = tp.dpd_per_ns;
  sc.time.develop_steps = 0;
  sc.time.intervals = 3;
  scenario::Runner runner(sc);
  runner.build();

  std::printf("schedule: tau = %d NS steps = %d DPD steps; tau_NS = %.4f (NS time units)\n\n",
              tp.exchange_every_ns, tp.dpd_steps_per_exchange(), tp.tau_ns());
  telemetry::BenchReport rep("fig5_time_progression");
  rep.meta("exchange_every_ns", static_cast<double>(tp.exchange_every_ns));
  rep.meta("dpd_per_ns", static_cast<double>(tp.dpd_per_ns));
  rep.meta("tau_ns", tp.tau_ns());
  std::printf("%-10s %-14s %-14s %-12s\n", "interval", "NS steps done", "DPD steps done",
              "exchanges");
  const auto& sys = runner.dpd();
  const auto ns_steps = [&] { return runner.ns2d().time() / sc.sem.dt; };
  for (int interval = 1; interval <= 3; ++interval) {
    runner.advance(1);
    const auto dpd_steps = static_cast<double>(sys.step_count());
    std::printf("%-10d %-14.0f %-14.0f %-12zu\n", interval, ns_steps(), dpd_steps,
                runner.exchanges());
    rep.row();
    rep.set("interval", static_cast<double>(interval));
    rep.set("ns_steps", ns_steps());
    rep.set("dpd_steps", dpd_steps);
    rep.set("exchanges", static_cast<double>(runner.exchanges()));
  }
  const bool ok = sys.step_count() == 3ull * tp.dpd_steps_per_exchange() &&
                  runner.exchanges() == 3;
  const double realised_ratio = static_cast<double>(sys.step_count()) / ns_steps();
  std::printf("\nrealised ratio: %llu DPD steps / %.0f NS steps = %.1f (target %d)  [%s]\n",
              static_cast<unsigned long long>(sys.step_count()), ns_steps(), realised_ratio,
              tp.dpd_per_ns, ok ? "OK" : "MISMATCH");
  rep.meta("realised_ratio", realised_ratio);
  rep.meta("ok", std::string(ok ? "true" : "false"));
  rep.write();
  return ok ? 0 : 1;
}
