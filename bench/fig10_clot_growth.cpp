// Fig. 10 reproduction: platelet aggregation on the aneurysm wall in the
// coupled continuum-atomistic simulation (scenario::aneurysm_preset run by
// scenario::Runner). A DPD channel-with-cavity domain (the aneurysm sac) is
// driven by the continuum channel-with-cavity flow; platelets that
// linger near the damaged cavity wall trigger, activate after the delay
// time, and arrest — yellow (active) and red (inactive) spheres in the
// paper's rendering. The output is the thrombus growth curve: bound
// platelets vs time, for two activation delays (the Pivkin et al. knob the
// model inherits).

#include <cstdio>

#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "telemetry/bench_report.hpp"

namespace {

void run_clot(double activation_delay, telemetry::BenchReport& rep) {
  scenario::Scenario sc = scenario::aneurysm_preset();
  sc.platelets.activation_delay = activation_delay;
  scenario::Runner runner(sc);
  runner.build();
  const auto& sys = runner.dpd();
  const auto& platelets = runner.platelets();

  std::printf("activation delay = %.1f (DPD time units):\n", activation_delay);
  std::printf("  %-10s %-9s %-10s %-8s %-7s\n", "DPD time", "passive", "triggered",
              "active", "bound");
  for (int block = 0; block < 8; ++block) {
    runner.advance(4);
    const std::size_t passive = platelets.count(dpd::PlateletState::Passive);
    const std::size_t triggered = platelets.count(dpd::PlateletState::Triggered);
    const std::size_t active = platelets.count(dpd::PlateletState::Active);
    const std::size_t bound = platelets.count(dpd::PlateletState::Bound);
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
  rep.meta("platelets", static_cast<double>(scenario::aneurysm_preset().platelets.count));
  run_clot(1.0, rep);
  run_clot(6.0, rep);
  rep.write();
  return 0;
}
