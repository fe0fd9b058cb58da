// Table 5 reproduction: strong scaling of NektarG in *coupled* flow
// simulations (platelet aggregation in the Fig. 1 domain): the DPD solver
// holds 823,079,981 particles; the continuum side keeps a fixed allocation
// (4,096 BG/P cores / 4,116 XT5 cores). CPU-time is for 4000 DPD steps
// (= 200 NS steps). The paper's headline: DPD strong scaling is
// super-linear (BG/P 107% / 102%; XT5 144%) because halving the per-core
// working set moves it into cache.

// With --ranks N (plus --workers W etc., see ScalingCli in comm_skeleton.hpp)
// the bench additionally executes the communication skeleton at N real ranks
// through the xmp runtime and writes BENCH_scaling_table5_coupled.json.

#include <cstdio>

#include "comm_skeleton.hpp"
#include "scaling_model.hpp"
#include "telemetry/bench_report.hpp"

namespace {

void run(const scaling::MachineConfig& mc, const std::vector<int>& cores_list,
         telemetry::BenchReport& rep) {
  scaling::DpdConfig dc;
  std::printf("%s (%d cores/node), N_DPD = %.0f particles:\n", mc.name, mc.cores_per_node,
              dc.particles);
  std::printf("  %-10s %-16s %s\n", "Ncore", "s/4000 steps", "efficiency vs previous row");
  double prev_t = 0.0;
  int prev_c = 0;
  for (int cores : cores_list) {
    const double t = 4000.0 * scaling::dpd_step_time(mc, dc, cores);
    double eff_pct = 0.0;
    if (prev_c == 0) {
      std::printf("  %-10d %-16.2f --\n", cores, t);
    } else {
      eff_pct = 100.0 * (prev_t / t) / (static_cast<double>(cores) / prev_c);
      std::printf("  %-10d %-16.2f %.0f%%\n", cores, t, eff_pct);
    }
    rep.row();
    rep.set("machine", std::string(mc.name));
    rep.set("cores", static_cast<double>(cores));
    rep.set("s_per_4000_steps", t);
    rep.set("efficiency_vs_prev_pct", eff_pct);
    prev_t = t;
    prev_c = cores;
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  scaling::ScalingCli cli;
  if (!cli.parse(argc, argv, "table5_coupled_scaling")) return 2;
  std::printf("=== Table 5: coupled continuum-DPD strong scaling ===\n");
  std::printf("(paper BG/P: 3205.58 / 1399.12 (107%%) / 665.79 (102%%);\n");
  std::printf(" paper XT5:  2193.66 / 762.99 (144%%))\n\n");
  telemetry::BenchReport rep("table5_coupled_scaling");
  rep.meta("dpd_steps", 4000.0);
  run(scaling::bgp(), {28672, 61440, 126976}, rep);
  run(scaling::xt5(), {17280, 34560, 93312}, rep);
  rep.write();
  std::printf("The super-linearity is the cache effect: per-core particle state crosses\n");
  std::printf("the cache-capacity boundary as cores double (see machine::compute_time).\n");

  if (cli.ranks > 0) {
    scaling::DpdConfig dc;
    const double modeled = scaling::dpd_step_time(scaling::bgp(), dc, cli.ranks);
    telemetry::BenchReport mrep("scaling_table5_coupled");
    mrep.meta("bench", std::string("table5_coupled_scaling"));
    scaling::run_measured_scaling(cli, modeled, mrep);
    mrep.write();
  }
  return 0;
}
