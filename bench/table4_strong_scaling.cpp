// Table 4 reproduction: strong scaling of the multi-patch SEM solver on
// BlueGene/P — for each patch count (3 / 8 / 16), doubling cores per patch
// from 1024 to 2048 yields ~75% parallel efficiency in the paper
// (996.98 -> 650.67 s, 1025.33 -> 685.23 s, 1048.75 -> 703.4 s).
//
// With --ranks N (plus --workers W etc., see ScalingCli in comm_skeleton.hpp)
// the bench additionally *executes* the communication skeleton at N real
// ranks through the xmp runtime and writes BENCH_scaling_table4_strong.json
// with measured wall-clock next to the modeled per-step time.

#include <cstdio>

#include "comm_skeleton.hpp"
#include "scaling_model.hpp"
#include "telemetry/bench_report.hpp"

int main(int argc, char** argv) {
  scaling::ScalingCli cli;
  if (!cli.parse(argc, argv, "table4_strong_scaling")) return 2;
  std::printf("=== Table 4: strong scaling (BG/P, 4 cores/node) ===\n");
  std::printf("(paper: Np=3 996.98->650.67 (76.6%%), Np=8 1025.33->685.23 (74.8%%),\n");
  std::printf("        Np=16 1048.75->703.4 (74.5%%))\n\n");
  std::printf("%-4s %-10s %-10s %-14s %s\n", "Np", "DOF", "cores", "s/1000 steps",
              "strong scaling");

  const auto mc = scaling::bgp();
  scaling::SemPatchConfig pc;
  telemetry::BenchReport rep("table4_strong_scaling");
  rep.meta("machine", std::string(mc.name));
  rep.meta("cores_per_node", static_cast<double>(mc.cores_per_node));
  for (int np : {3, 8, 16}) {
    const double dof = np * pc.elements * (pc.P + 1.0) * (pc.P + 1.0) * 3.0 * 4.0 / 1e9;
    double t_ref = 0.0;
    for (int cpp : {1024, 2048}) {
      const auto t = scaling::sem_step_time(mc, pc, np, cpp);
      const double t1000 = 1000.0 * t.per_step;
      double eff_pct = 100.0;
      if (cpp == 1024) {
        t_ref = t1000;
        std::printf("%-4d %.3fB %10d %14.2f   reference\n", np, dof, np * cpp, t1000);
      } else {
        eff_pct = 100.0 * t_ref / (2.0 * t1000);
        std::printf("%-4d %.3fB %10d %14.2f   %.1f%%\n", np, dof, np * cpp, t1000, eff_pct);
      }
      rep.row();
      rep.set("patches", static_cast<double>(np));
      rep.set("dof_billions", dof);
      rep.set("cores", static_cast<double>(np * cpp));
      rep.set("cores_per_patch", static_cast<double>(cpp));
      rep.set("s_per_1000_steps", t1000);
      rep.set("strong_efficiency_pct", eff_pct);
    }
    std::printf("\n");
  }
  rep.write();

  if (cli.ranks > 0) {
    // modeled reference for the same shape: cli.patches patches of
    // ranks/patches cores each
    const int cpp = std::max(1, cli.ranks / cli.patches);
    const auto modeled = scaling::sem_step_time(mc, pc, cli.patches, cpp);
    telemetry::BenchReport mrep("scaling_table4_strong");
    mrep.meta("bench", std::string("table4_strong_scaling"));
    scaling::run_measured_scaling(cli, modeled.per_step, mrep);
    mrep.write();
  }
  return 0;
}
