// Table 3 reproduction: weak scaling of the multi-patch SEM flow solver on
// BlueGene/P and Cray XT5 — Np = 3, 8, 16 patches at a fixed 2048 cores per
// patch (6,144 / 16,384 / 32,768 cores; 0.384 / 1.038 / 2.085 B DOF).
// Paper efficiencies: BG/P 100 / 95 / 92 %, XT5 100 / 96.9 / 91.5 %.
// Also reprints the Sec. 4.1 large-run claims: 92.3% at 49,152 -> 122,880
// cores (16 -> 40 patches, 3072 cores/patch).

// With --ranks=N (plus --workers=W etc., see comm_skeleton.hpp) the bench
// additionally executes the communication skeleton at N real ranks through
// the xmp runtime and writes BENCH_scaling_table3_weak.json.

#include <cstdio>

#include "comm_skeleton.hpp"
#include "scaling_model.hpp"
#include "telemetry/bench_report.hpp"

namespace {

void run(const scaling::MachineConfig& mc, telemetry::BenchReport& rep) {
  scaling::SemPatchConfig pc;
  const int cores_per_patch = 2048;
  std::printf("%s (%d cores/node):\n", mc.name, mc.cores_per_node);
  std::printf("  %-4s %-10s %-12s %-14s %s\n", "Np", "DOF", "cores", "s/1000 steps",
              "weak scaling");
  double t_ref = 0.0;
  for (int np : {3, 8, 16}) {
    const auto t = scaling::sem_step_time(mc, pc, np, cores_per_patch);
    const double t1000 = 1000.0 * t.per_step;
    if (np == 3) t_ref = t1000;
    const double dof = np * pc.elements * std::pow(pc.P + 1.0, 2) * 3.0 / 1e9 * 4.0;
    const double eff_pct = 100.0 * t_ref / t1000;
    if (np == 3)
      std::printf("  %-4d %.3fB %10d %14.2f   reference\n", np, dof, np * cores_per_patch,
                  t1000);
    else
      std::printf("  %-4d %.3fB %10d %14.2f   %.0f%%\n", np, dof, np * cores_per_patch, t1000,
                  eff_pct);
    rep.row();
    rep.set("machine", std::string(mc.name));
    rep.set("patches", static_cast<double>(np));
    rep.set("dof_billions", dof);
    rep.set("cores", static_cast<double>(np * cores_per_patch));
    rep.set("s_per_1000_steps", t1000);
    rep.set("weak_efficiency_pct", eff_pct);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  scaling::ScalingCli cli;
  if (!scaling::parse_scaling_cli(argc, argv, cli)) return 2;
  std::printf("=== Table 3: weak scaling, multi-patch flow simulation ===\n");
  std::printf("(paper: BG/P 650.67/685.23/703.4 s -> 100/95/92%%;\n");
  std::printf("        XT5  462.3/477.2/505.1 s -> 100/96.9/91.5%%)\n\n");
  telemetry::BenchReport rep("table3_weak_scaling");
  rep.meta("cores_per_patch", 2048.0);
  run(scaling::bgp(), rep);
  run(scaling::xt5(), rep);

  // the 122,880-core run quoted in the text (P = 6, 3072 cores/patch)
  scaling::SemPatchConfig pc6;
  pc6.P = 6;
  pc6.flops_per_element_per_iter = 1.1e5;
  const auto t16 = scaling::sem_step_time(scaling::bgp(), pc6, 16, 3072);
  const auto t40 = scaling::sem_step_time(scaling::bgp(), pc6, 40, 3072);
  const double large_eff_pct = 100.0 * t16.per_step / t40.per_step;
  std::printf("Large-run check (P=6, 3072 cores/patch): 16 patches (49,152 cores) -> 40\n");
  std::printf("patches (122,880 cores): weak efficiency %.1f%% (paper: 92.3%%)\n", large_eff_pct);
  rep.meta("large_run_weak_efficiency_pct", large_eff_pct);
  rep.write();

  if (cli.ranks > 0) {
    scaling::SemPatchConfig pc;
    const int cpp = std::max(1, cli.ranks / cli.patches);
    const auto modeled = scaling::sem_step_time(scaling::bgp(), pc, cli.patches, cpp);
    telemetry::BenchReport mrep("scaling_table3_weak");
    mrep.meta("bench", std::string("table3_weak_scaling"));
    scaling::run_measured_scaling(cli, modeled.per_step, mrep);
    mrep.write();
  }
  return 0;
}
