// Table 2 reproduction: CPU-time for 1000 time steps of a turbulent
// carotid-artery-like simulation under two partitioning strategies:
//   (a) the partitioner sees only face-sharing neighbour elements,
//   (b) the full vertex/edge/face adjacency with dof-scaled link weights
//       (the paper's approach; rows "a" vs "b", b faster by ~1-5%).
// Also reproduces the Sec. 3.5 claim that the topology-aware multi-direction
// injection schedule ("at least 6 outstanding messages") cuts 3-5% vs a
// naive one-outstanding-message schedule.
//
// The partitions are computed by the real partitioner on a real element
// graph; the resulting halo-exchange schedule is replayed on the modeled
// BG/P torus (see DESIGN.md: absolute seconds are calibrated, the a-vs-b
// *shape* is the reproduction target).

#include <cstdio>
#include <vector>

#include "model/cost.hpp"
#include "model/graph.hpp"
#include "model/partition.hpp"
#include "model/torus.hpp"
#include "scenario/flags.hpp"
#include "telemetry/bench_report.hpp"

namespace {

// carotid-artery stand-in: tube mesh, 9216 elements, P = 6
constexpr int kP = 6;
constexpr std::size_t kAxial = 96, kCirc = 24, kRadial = 8;
constexpr double kFlopsPerElemStep = 1.0e8;  // ~300 CG iters x tensor kernels per element
constexpr double kBytesPerDof = 8.0 * 3.0;   // 3 fields, doubles
constexpr int kExchangesPerStep = 40;       // halo exchanges per step (CG iterations)
constexpr int kSteps = 1000;

machine::Torus torus_for(int cores) {
  machine::TorusSpec spec;
  spec.cores_per_node = 4;
  const int nodes = cores / spec.cores_per_node;
  // pick a near-cubic factorisation
  int nx = 1;
  while (nx * nx * nx < nodes) nx *= 2;
  spec.nx = nx;
  spec.ny = nx;
  spec.nz = nodes / (nx * nx);
  if (spec.nz == 0) spec.nz = 1;
  while (spec.nx * spec.ny * spec.nz < nodes) spec.nz *= 2;
  return machine::Torus(spec);
}

double modeled_time(const machine::Torus& torus, const mesh::ElementGraph& truth,
                    const mesh::Partition& part, int cores, machine::InjectionSchedule sched) {
  machine::ComputeSpec cspec;

  // per-core compute: elements are spread as evenly as the partition did
  std::vector<double> load(static_cast<std::size_t>(cores), 0.0);
  for (std::size_t v = 0; v < truth.size(); ++v)
    load[static_cast<std::size_t>(part.part[v])] += 1.0;

  machine::StepSchedule sched_step;
  sched_step.flops.resize(static_cast<std::size_t>(cores));
  sched_step.working_set.resize(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    sched_step.flops[static_cast<std::size_t>(c)] =
        load[static_cast<std::size_t>(c)] * kFlopsPerElemStep;
    sched_step.working_set[static_cast<std::size_t>(c)] =
        load[static_cast<std::size_t>(c)] * 1.2e5;  // ~120 KB per element
  }

  // halo exchange: one phase, replayed kExchangesPerStep times per step.
  // The *true* communication volume is evaluated against the full
  // dof-weighted adjacency regardless of what the partitioner saw.
  std::vector<machine::Message> halo;
  for (const auto& pv : mesh::comm_volumes(truth, part)) {
    halo.push_back({pv.a, pv.b, pv.weight * kBytesPerDof});
    halo.push_back({pv.b, pv.a, pv.weight * kBytesPerDof});
  }
  sched_step.phases.push_back(halo);

  const auto r = machine::replay_step(torus, cspec, sched_step,
                                      machine::Routing::Adaptive, sched);
  return kSteps * (r.compute_time + kExchangesPerStep * r.comm_time /
                                        static_cast<double>(sched_step.phases.size()));
}

}  // namespace

int main(int argc, char** argv) {
  if (!scenario::Flags("table2_partitioning").parse(argc, argv)) return 2;  // takes no flags

  std::printf("=== Table 2: partitioning strategies, CPU-time (s) per %d steps ===\n", kSteps);
  std::printf("(paper BG/P: a) 1181/655/382/238  b) 1172/638/362/220 for 512-4096 cores)\n");
  std::printf("(modeled network: torus)\n\n");
  std::printf("%-10s %14s %14s %9s | %16s\n", "N cores", "a) face-only", "b) full-adj",
              "gain", "naive-injection");

  // radial faces carry 1.6x the dofs (boundary-layer refinement): the
  // face-only partitioner cannot see this heterogeneity
  constexpr double kRadialFactor = 1.6;
  auto g_face = mesh::tube_graph(kAxial, kCirc, kRadial, kP, mesh::AdjacencyPolicy::FaceOnly,
                                 kRadialFactor);
  auto g_full = mesh::tube_graph(kAxial, kCirc, kRadial, kP,
                                 mesh::AdjacencyPolicy::FullDofWeighted, kRadialFactor);

  telemetry::BenchReport rep("table2_partitioning");
  rep.meta("steps", static_cast<double>(kSteps));
  rep.meta("elements", static_cast<double>(kAxial * kCirc * kRadial));
  rep.meta("order", static_cast<double>(kP));
  rep.meta("topology", "torus");

  for (int cores : {512, 1024, 2048, 4096}) {
    const machine::Torus torus = torus_for(cores);
    // average over partitioner seeds: on a structured tube both policies
    // produce near-identical partitions, so single-seed gaps are noisy
    double ta = 0.0, tb = 0.0, tb_naive = 0.0;
    constexpr int kSeeds = 4;
    for (unsigned seed = 0; seed < kSeeds; ++seed) {
      mesh::PartitionOptions opt;
      opt.seed = 42 + seed;
      auto p_face = mesh::partition_graph(g_face, cores, opt);
      auto p_full = mesh::partition_graph(g_full, cores, opt);
      ta += modeled_time(torus, g_full, p_face, cores, machine::InjectionSchedule::MultiDirection);
      tb += modeled_time(torus, g_full, p_full, cores, machine::InjectionSchedule::MultiDirection);
      tb_naive += modeled_time(torus, g_full, p_full, cores, machine::InjectionSchedule::Naive);
    }
    ta /= kSeeds;
    tb /= kSeeds;
    tb_naive /= kSeeds;
    const double gain_pct = 100.0 * (ta - tb) / ta;
    const double naive_penalty_pct = 100.0 * (tb_naive - tb) / tb;
    std::printf("%-10d %14.2f %14.2f %8.1f%% | %14.2f (%.1f%% slower)\n", cores, ta, tb,
                gain_pct, tb_naive, naive_penalty_pct);
    rep.row();
    rep.set("cores", static_cast<double>(cores));
    rep.set("face_only_s", ta);
    rep.set("full_adj_s", tb);
    rep.set("gain_pct", gain_pct);
    rep.set("naive_injection_s", tb_naive);
    rep.set("naive_penalty_pct", naive_penalty_pct);
  }
  rep.write();
  std::printf("\nColumns a/b replay the same machine model; only the partitioner's view of\n"
              "the adjacency differs. The last column re-times row b with the naive\n"
              "injection schedule (topology-aware scheduling ablation, Sec. 3.5).\n");
  return 0;
}
