// Ablation: the preconditioner of the Helmholtz/Poisson solves, on the
// meshes of two e2e workloads with each run's two operators:
//   * 3D, cdc3d_sem: 4 x 1 x 1 box, 8 x 2 x 4 elements, P = 6, 15,925
//     nodes; velocity lambda = 3 / (2 dt) = 750, nu = 0.05, natural outflow
//     on X1; pressure lambda = 0, nu = 1, Dirichlet on X1 only.
//   * 2D, sweep_warm: 4 x 1 channel, 8 x 2 elements, P = 4, 297 nodes;
//     velocity lambda = 1 / dt = 500, nu = 0.05, natural outlet; pressure
//     lambda = 0, nu = 1, Dirichlet on the outlet only.
// Each is solved two ways to the same tolerance:
//   * jacobi: CG from a zero guess with the Jacobi preconditioner on the
//     masked operator, built here in the bench (the solver's method before
//     fast diagonalisation);
//   * fast_diag: sem::HelmholtzSolver, which on a box mesh starts at the
//     exact inverse's answer by fast diagonalisation, so CG only checks it
//     and its iters/solve column reads 0.
// Reports the set-up time (for fast_diag, the per-axis eigenbases a solver
// builds once), CG iterations and milliseconds per solve, and per mesh the
// speedup of one time step's solves (one pressure solve and one velocity
// solve per component), both methods timed in the same process. Exits
// non-zero when the smaller of the two step speedups is below kMinSpeedup.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "mesh/quadmesh.hpp"
#include "sem/discretization.hpp"
#include "sem/helmholtz.hpp"
#include "sem/hex3d.hpp"
#include "sem/operators.hpp"
#include "telemetry/bench_report.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
constexpr int kSolves = 5;
constexpr double kMinSpeedup = 3.0;

template <class Disc>
struct Problem {
  const char* name;
  double lambda, nu;
  std::vector<typename Disc::Boundary> dirichlet;
  int per_step;  ///< solves of this operator in one time step
};

struct Tally {
  std::size_t iterations = 0;
  double seconds = 0.0;
};

/// Solves every problem both ways on d, adds a row per (operator, method)
/// and returns one time step's solve time in ms with (jacobi, fast_diag).
template <class Disc>
std::pair<double, double> run_mesh(telemetry::BenchReport& rep, const char* mesh_name,
                                   const Disc& d, const std::vector<Problem<Disc>>& problems) {
  sem::Operators ops(d);
  const std::size_t n = d.num_nodes();
  const auto& M = ops.mass_diag();
  auto rhs = [&](int s) {
    la::Vector f(n);
    for (std::size_t g = 0; g < n; ++g) {
      const auto x = d.node(g);
      double v = std::sin(1.3 * x[0] + 0.2 * s) * std::cos(M_PI * x[1]);
      if constexpr (Disc::kDim == 3) v *= std::sin(M_PI * x[2]);
      f[g] = v + 0.1 * s * x[0];
    }
    return f;
  };

  std::printf("--- %s mesh, %zu nodes, P = %d ---\n", mesh_name, n, d.order());
  std::printf("%-10s %-10s %-10s %-14s %-12s %-10s %-10s\n", "operator", "method", "setup ms",
              "iters/solve", "ms/solve", "speedup", "max |du|");
  double step_jacobi_ms = 0.0, step_fast_ms = 0.0;
  for (const Problem<Disc>& p : problems) {
    const auto tb = clock_type::now();
    sem::HelmholtzSolver hs(ops, p.lambda, p.nu, p.dirichlet);
    const double build_ms = 1e3 * std::chrono::duration<double>(clock_type::now() - tb).count();
    const auto& dnodes = hs.dirichlet_nodes();
    const la::Vector bc(dnodes.size(), 0.0);

    // the same masked operator with Jacobi, as the solver built it before
    const auto tj = clock_type::now();
    std::vector<char> fixed(n, 0);
    for (std::size_t g : dnodes) fixed[g] = 1;
    la::Vector diag = ops.helmholtz_diag(p.lambda, p.nu);
    for (std::size_t g : dnodes) diag[g] = 1.0;
    const double jacobi_build_ms =
        1e3 * std::chrono::duration<double>(clock_type::now() - tj).count();
    la::Vector t(n), y(n), u;
    la::LinearOperator A = [&](const double* x, double* out) {
      for (std::size_t g = 0; g < n; ++g) t[g] = fixed[g] ? 0.0 : x[g];
      ops.apply_helmholtz(p.lambda, p.nu, t, y);
      for (std::size_t g = 0; g < n; ++g) out[g] = fixed[g] ? x[g] : y[g];
    };
    auto jacobi_solve = [&](const la::Vector& f, la::Vector& x) {
      la::Vector b(n);
      for (std::size_t g = 0; g < n; ++g) b[g] = fixed[g] ? 0.0 : M[g] * f[g];
      x.resize(n);
      x.fill(0.0);
      return la::cg_solve(A, b, x, la::jacobi_preconditioner(diag)).iterations;
    };

    Tally jac, fd;
    double max_diff = 0.0;
    la::Vector x;
    jacobi_solve(rhs(-1), x);  // untimed warm-up of both paths
    hs.solve_with_values(rhs(-1), bc, u);
    for (int s = 0; s < kSolves; ++s) {
      const la::Vector f = rhs(s);
      const auto t0 = clock_type::now();
      jac.iterations += jacobi_solve(f, x);
      const auto t1 = clock_type::now();
      fd.iterations += hs.solve_with_values(f, bc, u).iterations;
      const auto t2 = clock_type::now();
      jac.seconds += std::chrono::duration<double>(t1 - t0).count();
      fd.seconds += std::chrono::duration<double>(t2 - t1).count();
      for (std::size_t g = 0; g < n; ++g) max_diff = std::max(max_diff, std::fabs(u[g] - x[g]));
    }
    step_jacobi_ms += p.per_step * 1e3 * jac.seconds / kSolves;
    step_fast_ms += p.per_step * 1e3 * fd.seconds / kSolves;
    const std::tuple<const char*, Tally, double> rows[] = {{"jacobi", jac, jacobi_build_ms},
                                                           {"fast_diag", fd, build_ms}};
    for (const auto& [method, tally, setup_ms] : rows) {
      const double iters = static_cast<double>(tally.iterations) / kSolves;
      const double ms = 1e3 * tally.seconds / kSolves;
      const double speedup = jac.seconds / tally.seconds;  // over jacobi
      std::printf("%-10s %-10s %-10.2f %-14.1f %-12.3f %-10.2f %-10.2e\n", p.name, method,
                  setup_ms, iters, ms, speedup, max_diff);
      rep.row();
      rep.set("mesh", std::string(mesh_name));
      rep.set("operator", std::string(p.name));
      rep.set("method", std::string(method));
      rep.set("lambda", p.lambda);
      rep.set("nu", p.nu);
      rep.set("setup_ms", setup_ms);
      rep.set("iters_per_solve", iters);
      rep.set("ms_per_solve", ms);
      rep.set("speedup", speedup);
      rep.set("max_abs_diff", max_diff);
    }
  }
  std::printf("one step's solves (1 pressure + %zu velocity): jacobi %.3f ms, "
              "fast_diag %.3f ms, speedup %.2f\n\n",
              Disc::kDim, step_jacobi_ms, step_fast_ms, step_jacobi_ms / step_fast_ms);
  const std::string key = mesh_name;
  rep.meta("nodes_" + key, static_cast<double>(n));
  rep.meta("step_ms_jacobi_" + key, step_jacobi_ms);
  rep.meta("step_ms_fast_diag_" + key, step_fast_ms);
  rep.meta("step_speedup_" + key, step_jacobi_ms / step_fast_ms);
  return {step_jacobi_ms, step_fast_ms};
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation: Helmholtz preconditioner (cdc3d_sem and sweep_warm meshes) ===\n\n");
  telemetry::BenchReport rep("ablation_preconditioner");
  rep.meta("solves", static_cast<double>(kSolves));

  using F = sem::HexFace;
  const double dt3 = 0.002;
  const sem::Discretization3D d3(4.0, 1.0, 1.0, 8, 2, 4, 6);
  const auto [jac3, fast3] =
      run_mesh<sem::Discretization3D>(rep, "cdc3d_sem", d3,
                                      {{"velocity", 1.5 / dt3, 0.05,
                                        {F::X0, F::Y0, F::Y1, F::Z0, F::Z1}, 3},
                                       {"pressure", 0.0, 1.0, {F::X1}, 1}});

  const double dt2 = 0.002;
  const sem::Discretization d2(mesh::QuadMesh::channel(4.0, 1.0, 8, 2), 4);
  const auto [jac2, fast2] = run_mesh<sem::Discretization>(
      rep, "sweep_warm", d2,
      {{"velocity", 1.0 / dt2, 0.05, {mesh::kWall, mesh::kInlet}, 2},
       {"pressure", 0.0, 1.0, {mesh::kOutlet}, 1}});

  const double step_speedup = std::min(jac3 / fast3, jac2 / fast2);
  rep.meta("step_speedup", step_speedup);
  rep.write();

  std::printf("PRECOND_STEP_SPEEDUP=%.2f  (the smaller of the 3D and 2D step speedups)\n",
              step_speedup);
  std::printf("PRECOND_MIN_SPEEDUP=%.2f\n", kMinSpeedup);
  if (step_speedup < kMinSpeedup) {
    std::printf("FAIL: speedup %.2f below gate %.2f\n", step_speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}
