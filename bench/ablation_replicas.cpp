// Ablation: replica-ensemble averaging (Sec. 3.3 / Fig. 6). The paper's
// motivation for WPOD is that N_A concurrent replicas cost N_A times the
// resources for only a sqrt(N_A) accuracy gain. This bench runs the *real*
// machinery: an xmp run whose atomistic L3 is split into N_A replica groups
// (coupling::ReplicaEnsemble); each replica integrates an independent DPD
// realisation (different random forcing), the master replica's root gathers
// and averages the velocity profiles, and we report the error vs a
// high-statistics reference — expect error ~ 1/sqrt(N_A).

#include <cmath>
#include <cstdio>
#include <vector>

#include "dpd/geometry.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "replica/replica.hpp"
#include "telemetry/bench_report.hpp"
#include "xmp/comm.hpp"

namespace {

std::vector<double> dpd_profile(unsigned seed, int sample_steps) {
  dpd::DpdParams prm;
  prm.box = {8.0, 5.0, 8.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(8.0));
  sys.fill(3.0, dpd::kSolvent, seed, 0.1);
  sys.set_body_force([](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{0.06, 0, 0}; });
  for (int s = 0; s < 400; ++s) sys.step();
  dpd::SamplerParams sp;
  sp.nx = 1;
  sp.ny = 1;
  sp.nz = 16;
  dpd::FieldSampler sampler(sys, sp);
  for (int s = 0; s < sample_steps; ++s) {
    sys.step();
    sampler.accumulate(sys);
  }
  auto snap = sampler.snapshot();
  return {snap.begin(), snap.end()};
}

double rms_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s / static_cast<double>(a.size()));
}

}  // namespace

int main() {
  std::printf("=== Ablation: replica-ensemble averaging error ~ 1/sqrt(N_A) ===\n\n");

  // Reference: the same sampling protocol averaged over many independent
  // seeds. Matching the protocol makes the (deterministic) startup
  // transient cancel, so the error measured below is pure statistical
  // variance — the quantity the sqrt(N_A) law governs.
  std::vector<double> reference;
  const int kRefRuns = 16;
  for (int r = 0; r < kRefRuns; ++r) {
    auto p = dpd_profile(500 + static_cast<unsigned>(13 * r), 150);
    if (reference.empty()) reference.assign(p.size(), 0.0);
    for (std::size_t i = 0; i < p.size(); ++i) reference[i] += p[i] / kRefRuns;
  }

  telemetry::BenchReport rep("ablation_replicas");
  rep.meta("reference_runs", static_cast<double>(kRefRuns));
  std::printf("%-6s %-14s %-22s\n", "N_A", "rms error", "error * sqrt(N_A) (should be ~flat)");
  for (int n_replicas : {1, 2, 4, 8}) {
    // average the error over a few ensemble draws to tame the noise of the
    // measurement itself
    double err = 0.0;
    const int kTrials = 3;
    for (int trial = 0; trial < kTrials; ++trial) {
      std::vector<double> avg;
      // one xmp rank per replica: the real master/slave gather-average path
      xmp::run(n_replicas, [&](xmp::Comm& world) {
        coupling::ReplicaEnsemble ens(world, n_replicas);
        const auto mine = dpd_profile(
            100 + static_cast<unsigned>(37 * ens.replica_id() + 1000 * trial), 150);
        auto ens_avg = ens.gather_average(mine);
        if (ens.is_ensemble_root()) avg = ens_avg;
      });
      err += rms_diff(avg, reference);
    }
    err /= kTrials;
    const double scaled = err * std::sqrt(static_cast<double>(n_replicas));
    std::printf("%-6d %-14.4f %-22.4f\n", n_replicas, err, scaled);
    rep.row();
    rep.set("replicas", static_cast<double>(n_replicas));
    rep.set("rms_error", err);
    rep.set("error_times_sqrt_na", scaled);
  }
  rep.write();
  std::printf("\n(doubling the replicas costs 2x the resources for a sqrt(2) gain —\n"
              " the paper's argument for WPOD co-processing instead)\n");
  return 0;
}
