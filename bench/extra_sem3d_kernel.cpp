// Real measured microbenchmark of the 3D sum-factorised stiffness kernel —
// the compute core whose SIMDization Sec. 3.5 discusses. Verifies that the
// per-element cost scales as O((P+1)^4) (sum factorisation), not the naive
// O((P+1)^6), and measures the fast path (batched la::simd line kernels,
// precomputed gather/scatter tables, hoisted scratch) against the scalar
// baseline in the test-only sem_reference library, both on one lane so the
// ratio measures the SIMD kernels alone.
//
// Then the intra-rank lanes (sem/split.hpp) on cdc3d_sem's mesh (8 x 2 x 4
// elements, P = 6, 15,925 nodes): a Helmholtz apply, a gradient and a
// fast-diagonalisation solve, each on every idle core and inline
// (one_lane.hpp), over kLaneRounds interleaved rounds. Each row prints the
// lanes per split pass, the best time of each variant and one output
// digest, which must not depend on the lane count. SEM_LANES_SPEEDUP is the
// smallest of the rows' median speed-ups.
//
// Last a size sweep from the 2D sweep_warm mesh (297 nodes) to cdc3d_sem's:
// the Helmholtz apply on every core and inline, which splits only from
// sem::kSplitNodes nodes, next to the transform's axis-0 gemm pass split by
// rows at every size, which shows where a split starts to pay.
//
// Writes BENCH_sem3d_kernel.json. Exits non-zero when the smallest SIMD
// speedup at P >= 5 is below kMinSpeedup, when SEM_LANES_SPEEDUP is below
// kMinLaneSpeedup where the process may run on two or more hardware
// threads, or when a lanes row's digests differ.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "la/simd.hpp"
#include "mesh/quadmesh.hpp"
#include "one_lane.hpp"
#include "reference/sem_reference.hpp"
#include "sem/helmholtz.hpp"
#include "sem/operators.hpp"
#include "sem/split.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/registry.hpp"
#include "xmp/sched/lanes.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
constexpr double kMinSpeedup = 1.5;
/// Speed-up on every idle core over inline of the cdc3d_sem-mesh passes,
/// gated where a pass outside xmp::run gets two or more lanes, and the
/// rounds whose median per pass is gated.
constexpr double kMinLaneSpeedup = 1.1;
constexpr int kLaneRounds = 15;
constexpr int kSweepRounds = 5;

/// Seconds per call of fn: a warm call, then repetitions until they take
/// 50 ms.
template <typename Fn>
double time_call(Fn&& fn) {
  fn();  // warm
  int reps = 10;
  for (;;) {
    const auto t0 = clock_type::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto t1 = clock_type::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    if (dt > 0.05 || reps >= 1000) return dt / reps;
    reps *= 4;
  }
}

/// FNV-1a over the bytes of the fields.
std::uint64_t digest(std::initializer_list<const la::Vector*> fields) {
  std::uint64_t h = 1469598103934665603ull;
  for (const la::Vector* f : fields)
    for (std::size_t i = 0; i < f->size(); ++i) {
      std::uint64_t b;
      const double v = (*f)[i];
      std::memcpy(&b, &v, sizeof b);
      for (int k = 0; k < 8; ++k, b >>= 8) h = (h ^ (b & 0xffu)) * 1099511628211ull;
    }
  return h;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One timing of a pass: microseconds per call, lanes per split pass (1
/// when no pass split) and the digest of what the last call wrote.
struct PassTiming {
  double us = 0.0, lanes = 1.0;
  std::uint64_t digest = 0;
};

template <class Pass>
PassTiming time_pass(Pass& pass) {
  telemetry::Registry::local().clear();
  PassTiming t;
  t.us = 1e6 * time_call([&] { pass(); });
  const auto c = telemetry::Registry::local().counters()["sem.lanes"];
  if (c.count > 0) t.lanes = c.value / static_cast<double>(c.count);
  t.digest = pass();
  return t;
}

/// A pass timed on every core and inline over `rounds` interleaved rounds:
/// the best time of each, the lanes per split pass, the digests and the
/// median of the rounds' inline / every-core ratios.
struct LaneRow {
  const char* pass = "";
  PassTiming every_core, one_lane;
  bool stable = true;  ///< every call of each variant wrote the same bits
  double speedup = 1.0;
};

template <class Pass>
LaneRow time_lanes(const char* name, Pass& pass, int rounds) {
  LaneRow row;
  row.pass = name;
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    PassTiming t[2];
    t[0] = time_pass(pass);
    on_one_lane([&] { t[1] = time_pass(pass); });
    for (int v = 0; v < 2; ++v) {
      PassTiming& best = v == 0 ? row.every_core : row.one_lane;
      if (r > 0 && t[v].digest != best.digest) row.stable = false;
      if (r == 0 || t[v].us < best.us) best.us = t[v].us;
      best.lanes = t[v].lanes;
      best.digest = t[v].digest;
    }
    ratios.push_back(t[1].us / t[0].us);
  }
  row.speedup = median(ratios);
  return row;
}

la::Vector smooth_field(std::size_t n, double phase) {
  la::Vector u(n);
  for (std::size_t g = 0; g < n; ++g) u[g] = std::sin(0.01 * static_cast<double>(g) + phase);
  return u;
}

/// The transform's axis-0 pass on a lattice of `lines` lines of n0 points
/// (out = in S, S n0 x n0), split by rows over every idle core at any size.
/// Returns its median inline / every-core ratio.
double gemm_split_speedup(std::size_t n0, std::size_t lines) {
  std::vector<double> S(n0 * n0), in(n0 * lines), out(n0 * lines);
  for (std::size_t i = 0; i < S.size(); ++i) S[i] = std::cos(0.1 * static_cast<double>(i));
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::sin(0.01 * static_cast<double>(i));
  const int want = xmp::lanes::width();
  auto rows = [&](std::size_t lo, std::size_t hi, int) {
    la::simd::gemm(in.data() + lo * n0, S.data(), out.data() + lo * n0, hi - lo, n0, n0);
  };
  std::vector<double> ratios;
  for (int r = 0; r < kSweepRounds; ++r) {
    const double split = time_call([&] { xmp::lanes::for_chunks(want, lines, rows); });
    const double one = time_call([&] { rows(0, lines, 0); });
    ratios.push_back(one / split);
  }
  return median(ratios);
}

}  // namespace

int main() {
  std::printf("=== 3D stiffness kernel: fast path vs reference (one lane) ===\n\n");
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

    // both on one lane: the fast path's sweep would split these meshes
    double t_fast = 0.0, t_slow = 0.0;
    on_one_lane([&] {
      t_fast = time_call([&] { ops.apply_stiffness(u, y); }) / nelem;
      t_slow = time_call([&] { sem::reference::apply_stiffness(d, u, y); }) / nelem;
    });
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
    rep.set("variant", std::string("simd"));
    rep.set("order", static_cast<double>(P));
    rep.set("us_per_element_fast", tf_us);
    rep.set("us_per_element_ref", t_slow * 1e6);
    rep.set("speedup", speedup);
    rep.set("gflops_fast", gf);
    rep.set("measured_scaling", measured_x);
    rep.set("predicted_scaling", expect_x);
  }

  std::printf("\nSEM3D_KERNEL_SPEEDUP=%.2f  (min over P >= 5)\n", gated_min_speedup);
  std::printf("(cost per element tracks the O((P+1)^4) sum-factorised bound; a naive\n"
              " dense elemental operator would scale as (P+1)^6)\n");

  // ---- lanes on cdc3d_sem's mesh ----
  const int width = xmp::lanes::width();
  std::printf("\n=== Lanes: cdc3d_sem mesh, every idle core (%d) vs inline ===\n\n", width);
  using F = sem::HexFace;
  const sem::Discretization3D d3(4.0, 1.0, 1.0, 8, 2, 4, 6);
  sem::Operators ops3(d3);
  const std::size_t n3 = d3.num_nodes();
  const la::Vector u3 = smooth_field(n3, 0.0);
  la::Vector y3, x3;
  sem::Operators<sem::Discretization3D>::Fields grad3;
  // the velocity operator of a cdc3d_sem step: lambda = 3 / (2 dt), dt = 0.002
  sem::HelmholtzSolver hs(ops3, 750.0, 0.05, {F::X0, F::Y0, F::Y1, F::Z0, F::Z1});
  const la::Vector bc3(hs.dirichlet_nodes().size(), 0.0);
  auto helmholtz = [&] {
    ops3.apply_helmholtz(750.0, 0.05, u3, y3);
    return digest({&y3});
  };
  auto gradient = [&] {
    ops3.gradient(u3, grad3);
    return digest({&grad3[0], &grad3[1], &grad3[2]});
  };
  auto fast_diag = [&] {
    hs.solve_with_values(u3, bc3, x3);
    return digest({&x3});
  };
  const LaneRow lane_rows[] = {time_lanes("helmholtz", helmholtz, kLaneRounds),
                               time_lanes("gradient", gradient, kLaneRounds),
                               time_lanes("fast_diag", fast_diag, kLaneRounds)};
  std::printf("%-10s %-12s %-14s %-14s %-10s %-16s\n", "pass", "lanes/pass", "us (lanes)",
              "us (inline)", "speedup", "digest");
  double lane_speedup = 1e30;
  bool digests_equal = true;
  for (const LaneRow& row : lane_rows) {
    const bool same = row.stable && row.every_core.digest == row.one_lane.digest;
    digests_equal = digests_equal && same;
    lane_speedup = std::min(lane_speedup, row.speedup);
    std::printf("%-10s %-12.2f %-14.1f %-14.1f %-10.2f %016llx%s\n", row.pass,
                row.every_core.lanes, row.every_core.us, row.one_lane.us, row.speedup,
                static_cast<unsigned long long>(row.every_core.digest), same ? "" : " DIFFERS");
    rep.row();
    rep.set("variant", std::string("lanes"));
    rep.set("pass", std::string(row.pass));
    rep.set("nodes", static_cast<double>(n3));
    rep.set("lanes_per_pass", row.every_core.lanes);
    rep.set("us_lanes", row.every_core.us);
    rep.set("us_inline", row.one_lane.us);
    rep.set("speedup", row.speedup);
  }
  std::printf("\nSEM_LANES_SPEEDUP=%.2f (smallest median over %d rounds)\n", lane_speedup,
              kLaneRounds);

  // ---- size sweep ----
  std::printf("\n=== Size sweep: where a split pays (split from %zu nodes) ===\n\n",
              sem::kSplitNodes);
  std::printf("%-8s %-10s %-12s %-14s %-14s %-12s %-12s\n", "nodes", "mesh", "lanes/pass",
              "us (lanes)", "us (inline)", "speedup", "gemm split");
  auto sweep_row = [&](const std::string& mesh, const auto& d, std::size_t n0) {
    sem::Operators ops(d);
    const la::Vector u = smooth_field(d.num_nodes(), 0.5);
    la::Vector y;
    auto apply = [&] {
      ops.apply_helmholtz(750.0, 0.05, u, y);
      return digest({&y});
    };
    const LaneRow row = time_lanes("helmholtz", apply, kSweepRounds);
    const double gemm = gemm_split_speedup(n0, d.num_nodes() / n0);
    std::printf("%-8zu %-10s %-12.2f %-14.1f %-14.1f %-12.2f %-12.2f\n", d.num_nodes(),
                mesh.c_str(), row.every_core.lanes, row.every_core.us, row.one_lane.us,
                row.speedup, gemm);
    digests_equal = digests_equal && row.stable && row.every_core.digest == row.one_lane.digest;
    rep.row();
    rep.set("variant", std::string("sweep"));
    rep.set("mesh", mesh);
    rep.set("nodes", static_cast<double>(d.num_nodes()));
    rep.set("lanes_per_pass", row.every_core.lanes);
    rep.set("us_lanes", row.every_core.us);
    rep.set("us_inline", row.one_lane.us);
    rep.set("speedup", row.speedup);
    rep.set("gemm_split_speedup", gemm);
  };
  // sweep_warm's 2D mesh: 8 x 2 elements at P = 4, lattice 33 x 9
  sweep_row("2d 8x2", sem::Discretization(mesh::QuadMesh::channel(4.0, 1.0, 8, 2), 4), 33);
  for (const auto& [nx, ny, nz] : {std::array<std::size_t, 3>{1, 1, 1}, {2, 1, 1}, {2, 2, 1},
                                   {2, 2, 2}, {4, 2, 2}, {4, 2, 4}, {8, 2, 4}}) {
    const std::string mesh =
        std::to_string(nx) + "x" + std::to_string(ny) + "x" + std::to_string(nz);
    const auto half = [](std::size_t k) { return 0.5 * static_cast<double>(k); };
    sweep_row(mesh, sem::Discretization3D(half(nx), half(ny), half(nz), nx, ny, nz, 6),
              6 * nx + 1);
  }
  rep.meta("split_nodes", static_cast<double>(sem::kSplitNodes));
  rep.meta("lane_speedup", lane_speedup);
  rep.write();

  int status = 0;
  std::printf("\nSEM3D_KERNEL_MIN_SPEEDUP=%.2f\n", kMinSpeedup);
  if (gated_min_speedup < kMinSpeedup) {
    std::printf("FAIL: speedup %.2f below gate %.2f\n", gated_min_speedup, kMinSpeedup);
    status = 1;
  }
  if (!digests_equal) {
    std::printf("FAIL: an output digest depends on the lane count\n");
    status = 1;
  }
  if (width >= 2) {
    std::printf("SEM_LANES_MIN_SPEEDUP=%.2f\n", kMinLaneSpeedup);
    if (lane_speedup < kMinLaneSpeedup) {
      std::printf("FAIL: lane speedup %.2f below gate %.2f\n", lane_speedup, kMinLaneSpeedup);
      status = 1;
    }
  } else {
    std::printf("SEM_LANES_MIN_SPEEDUP=n/a (one usable hardware thread)\n");
  }
  return status;
}
