// Real measured microbenchmark of the 3D sum-factorised stiffness kernel —
// the compute core whose SIMDization Sec. 3.5 discusses. Verifies that the
// per-element cost scales as O((P+1)^4) (sum factorisation), not the naive
// O((P+1)^6), and measures the fast path (batched la::simd line kernels,
// precomputed gather/scatter tables, hoisted scratch) against the scalar
// baseline in the test-only sem_reference library. Exits non-zero when the
// smallest speedup at P >= 5 is below kMinSpeedup.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "reference/sem_reference.hpp"
#include "sem/operators.hpp"
#include "telemetry/bench_report.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
constexpr double kMinSpeedup = 1.5;

template <typename Apply>
double time_apply(const la::Vector& u, la::Vector& y, Apply&& apply) {
  apply(u, y);  // warm
  int reps = 10;
  for (;;) {
    const auto t0 = clock_type::now();
    for (int r = 0; r < reps; ++r) apply(u, y);
    const auto t1 = clock_type::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    if (dt > 0.05 || reps >= 1000) return dt / reps;
    reps *= 4;
  }
}

}  // namespace

int main() {
  std::printf("=== 3D stiffness kernel: fast path vs reference ===\n\n");
  telemetry::BenchReport rep("sem3d_kernel");
  std::printf("%-6s %-16s %-16s %-10s %-14s %-20s\n", "P", "fast (us/elem)", "ref (us/elem)",
              "speedup", "GF/s (fast)", "scaling vs (P+1)^4");
  double t_ref_scaling = 0.0;
  int P_ref = 0;
  double gated_min_speedup = 1e30;
  for (int P : {3, 5, 7, 9, 11}) {
    // fixed total DOF budget: fewer elements at higher order
    const std::size_t ne = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::cbrt(20000.0 / std::pow(P + 1, 3))));
    sem::Discretization3D d(1.0, 1.0, 1.0, ne, ne, ne, P);
    sem::Operators ops(d);
    la::Vector u(d.num_nodes()), y(d.num_nodes());
    for (std::size_t g = 0; g < d.num_nodes(); ++g) u[g] = std::sin(0.1 * g);
    const double nelem = static_cast<double>(d.num_elements());

    const double t_fast =
        time_apply(u, y, [&](const la::Vector& in, la::Vector& out) {
          ops.apply_stiffness(in, out);
        }) / nelem;
    const double t_slow =
        time_apply(u, y, [&](const la::Vector& in, la::Vector& out) {
          sem::reference::apply_stiffness(d, in, out);
        }) / nelem;
    const double speedup = t_slow / t_fast;
    if (P >= 5) gated_min_speedup = std::min(gated_min_speedup, speedup);

    const double n1 = P + 1.0;
    const double per_elem = 6.0 * n1 * n1 * n1 * n1;  // 3 directions x 2 flops x n1^4
    const double gf = per_elem / t_fast / 1e9;

    const double tf_us = t_fast * 1e6;
    double measured_x = 1.0, expect_x = 1.0;
    char scaling[64];
    if (P_ref == 0) {
      t_ref_scaling = tf_us;
      P_ref = P;
      std::snprintf(scaling, sizeof scaling, "reference");
    } else {
      measured_x = tf_us / t_ref_scaling;
      expect_x = std::pow((P + 1.0) / (P_ref + 1.0), 4);
      std::snprintf(scaling, sizeof scaling, "%.1fx / O(P^4) %.1fx", measured_x, expect_x);
    }
    std::printf("%-6d %-16.2f %-16.2f %-10.2f %-14.2f %-20s\n", P, tf_us, t_slow * 1e6,
                speedup, gf, scaling);

    rep.row();
    rep.set("order", static_cast<double>(P));
    rep.set("us_per_element_fast", tf_us);
    rep.set("us_per_element_ref", t_slow * 1e6);
    rep.set("speedup", speedup);
    rep.set("gflops_fast", gf);
    rep.set("measured_scaling", measured_x);
    rep.set("predicted_scaling", expect_x);
  }
  rep.write();

  std::printf("\nSEM3D_KERNEL_SPEEDUP=%.2f  (min over P >= 5)\n", gated_min_speedup);
  std::printf("(cost per element tracks the O((P+1)^4) sum-factorised bound; a naive\n"
              " dense elemental operator would scale as (P+1)^6)\n");

  std::printf("SEM3D_KERNEL_MIN_SPEEDUP=%.2f\n", kMinSpeedup);
  if (gated_min_speedup < kMinSpeedup) {
    std::printf("FAIL: speedup %.2f below gate %.2f\n", gated_min_speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}
