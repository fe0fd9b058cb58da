// Cross-module property sweeps (parameterised gtest): invariants that must
// hold across whole parameter ranges, not just single configurations.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <set>

#include "coupling/scales.hpp"
#include "dpd/geometry.hpp"
#include "dpd/system.hpp"
#include "la/cg.hpp"
#include "model/graph.hpp"
#include "model/partition.hpp"
#include "model/torus.hpp"
#include "nektar1d/artery.hpp"
#include "sem/discretization.hpp"
#include "sem/helmholtz.hpp"
#include "sem/operators.hpp"
#include "xmp/comm.hpp"

namespace {

// ---------------------------------------------------------------------------
// SEM: spectral convergence of the Helmholtz solver in the order P
// ---------------------------------------------------------------------------

class SemOrderSweep : public ::testing::TestWithParam<int> {};

double helmholtz_error(int P) {
  auto m = mesh::QuadMesh::lid_cavity(2);
  sem::Discretization d(m, P);
  sem::Operators ops(d);
  const double lambda = 1.0, nu = 1.0;
  sem::HelmholtzSolver hs(ops, lambda, nu, {mesh::kWall, mesh::kInlet});
  hs.options().rtol = 1e-13;
  auto exact = [](double x, double y) { return std::sin(M_PI * x) * std::sin(M_PI * y); };
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = (lambda + 2.0 * nu * M_PI * M_PI) * exact(d.node_x(g), d.node_y(g));
  la::Vector u;
  hs.solve(f, [&](double x, double y) { return exact(x, y); }, u);
  double e = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    e = std::max(e, std::fabs(u[g] - exact(d.node_x(g), d.node_y(g))));
  return e;
}

TEST_P(SemOrderSweep, HelmholtzErrorDecaysSpectrally) {
  const int P = GetParam();
  const double eP = helmholtz_error(P);
  const double eP2 = helmholtz_error(P + 2);
  // spectral convergence: two extra orders shrink the error by >= 5x until
  // hitting the solver tolerance floor
  if (eP > 1e-10) {
    EXPECT_LT(eP2, 0.2 * eP) << "P=" << P;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, SemOrderSweep, ::testing::Values(2, 3, 4, 5));

// ---------------------------------------------------------------------------
// SEM: operator identities for every order
// ---------------------------------------------------------------------------

class SemIdentitySweep : public ::testing::TestWithParam<int> {};

TEST_P(SemIdentitySweep, MassAndStiffnessIdentities) {
  const int P = GetParam();
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 3, 2);
  sem::Discretization d(m, P);
  sem::Operators ops(d);
  // total mass = area
  double area = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) area += ops.mass_diag()[g];
  EXPECT_NEAR(area, 2.0, 1e-11);
  // K 1 = 0
  la::Vector ones(d.num_nodes(), 1.0), y;
  ops.apply_stiffness(ones, y);
  for (std::size_t g = 0; g < y.size(); ++g) EXPECT_NEAR(y[g], 0.0, 1e-10);
  // gradient of x is (1, 0) exactly for every P >= 1
  la::Vector fx(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g) fx[g] = d.node_x(g);
  decltype(ops)::Fields grad;
  ops.gradient(fx, grad);
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    EXPECT_NEAR(grad[0][g], 1.0, 1e-10);
    EXPECT_NEAR(grad[1][g], 0.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, SemIdentitySweep, ::testing::Values(1, 2, 3, 5, 7, 9));

// ---------------------------------------------------------------------------
// DPD: thermostat equilibrium across time steps and densities
// ---------------------------------------------------------------------------

struct DpdCase {
  double dt;
  double density;
};

class DpdThermostatSweep : public ::testing::TestWithParam<DpdCase> {};

TEST_P(DpdThermostatSweep, TemperatureWithinGrootWarrenBand) {
  const auto c = GetParam();
  dpd::DpdParams prm;
  prm.box = {7.0, 7.0, 7.0};
  prm.periodic = {true, true, true};
  prm.dt = c.dt;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(c.density, dpd::kSolvent, 29);
  // warm up for fixed *physical* time: the random fill stores potential
  // energy that takes ~2-3 time units to thermalise away
  const int warmup = std::max(200, static_cast<int>(4.0 / c.dt));
  for (int s = 0; s < warmup; ++s) sys.step();
  double T = 0.0;
  const int win = 150;
  for (int s = 0; s < win; ++s) {
    sys.step();
    T += sys.kinetic_temperature();
  }
  T /= win;
  // Groot-Warren report growing offsets with dt; allow a dt-dependent band
  EXPECT_NEAR(T, 1.0, 0.03 + 6.0 * c.dt) << "dt=" << c.dt << " rho=" << c.density;
}

INSTANTIATE_TEST_SUITE_P(Cases, DpdThermostatSweep,
                         ::testing::Values(DpdCase{0.005, 3.0}, DpdCase{0.01, 3.0},
                                           DpdCase{0.02, 3.0}, DpdCase{0.01, 4.0},
                                           DpdCase{0.01, 5.0}));

// ---------------------------------------------------------------------------
// DPD: momentum conservation holds for any geometry-free configuration
// ---------------------------------------------------------------------------

class DpdMomentumSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DpdMomentumSweep, DriftFreeUnderSeedVariation) {
  dpd::DpdParams prm;
  prm.box = {6.0, 6.0, 6.0};
  prm.periodic = {true, true, true};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, GetParam());
  const auto p0 = sys.total_momentum();
  for (int s = 0; s < 30; ++s) sys.step();
  const auto p1 = sys.total_momentum();
  EXPECT_NEAR(p1.x, p0.x, 1e-8);
  EXPECT_NEAR(p1.y, p0.y, 1e-8);
  EXPECT_NEAR(p1.z, p0.z, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpdMomentumSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Partitioner: balance and coverage across graph families and part counts
// ---------------------------------------------------------------------------

struct PartCase {
  int kind;  // 0 = quad grid, 1 = hex grid, 2 = tube
  int parts;
};

class PartitionPropertySweep : public ::testing::TestWithParam<PartCase> {};

TEST_P(PartitionPropertySweep, BalancedCompleteAndCutConsistent) {
  const auto c = GetParam();
  mesh::ElementGraph g =
      c.kind == 0   ? mesh::quad_grid_graph(20, 20, 5, mesh::AdjacencyPolicy::FullDofWeighted)
      : c.kind == 1 ? mesh::hex_grid_graph(8, 8, 8, 4, mesh::AdjacencyPolicy::FullDofWeighted)
                    : mesh::tube_graph(16, 12, 3, 5, mesh::AdjacencyPolicy::FullDofWeighted);
  auto p = mesh::partition_graph(g, c.parts);
  // every vertex assigned, every part used
  std::set<int> used(p.part.begin(), p.part.end());
  EXPECT_EQ(used.size(), static_cast<std::size_t>(c.parts));
  auto q = mesh::evaluate_partition(g, p);
  EXPECT_LE(q.imbalance, 1.35);
  // pairwise volumes sum to the cut
  double pair_sum = 0.0;
  for (const auto& v : mesh::comm_volumes(g, p)) pair_sum += v.weight;
  EXPECT_NEAR(pair_sum, q.edge_cut, 1e-9);
  // max part comm <= total
  EXPECT_LE(q.max_part_comm, q.total_comm_volume + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Cases, PartitionPropertySweep,
                         ::testing::Values(PartCase{0, 2}, PartCase{0, 6}, PartCase{0, 16},
                                           PartCase{1, 4}, PartCase{1, 12}, PartCase{2, 8},
                                           PartCase{2, 24}));

// ---------------------------------------------------------------------------
// xmp: collective identities for every communicator size
// ---------------------------------------------------------------------------

class XmpSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(XmpSizeSweep, CollectiveIdentities) {
  const int n = GetParam();
  xmp::run(n, [n](xmp::Comm& world) {
    // allreduce sum of ranks = n(n-1)/2
    const double s = world.allreduce(static_cast<double>(world.rank()), xmp::Op::Sum);
    EXPECT_DOUBLE_EQ(s, n * (n - 1) / 2.0);
    // allgather then local reduce agrees with allreduce
    std::vector<double> mine = {static_cast<double>(world.rank())};
    auto all = world.allgatherv(std::span<const double>(mine));
    EXPECT_DOUBLE_EQ(std::accumulate(all.begin(), all.end(), 0.0), s);
    // split into singletons: every rank becomes rank 0 of a size-1 comm
    auto solo = world.split(world.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, XmpSizeSweep, ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// machine: torus route properties for assorted shapes
// ---------------------------------------------------------------------------

struct TorusCase {
  int nx, ny, nz;
};

class TorusSweep : public ::testing::TestWithParam<TorusCase> {};

TEST_P(TorusSweep, RoutesAreMinimalAndSymmetric) {
  const auto c = GetParam();
  machine::TorusSpec spec;
  spec.nx = c.nx;
  spec.ny = c.ny;
  spec.nz = c.nz;
  machine::Torus t(spec);
  std::mt19937 gen(4);
  std::uniform_int_distribution<int> pick(0, spec.total_nodes() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    const int a = pick(gen), b = pick(gen);
    EXPECT_EQ(t.hops(a, b), t.hops(b, a));
    EXPECT_EQ(static_cast<int>(t.route(a, b, {0, 1, 2}).size()), t.hops(a, b));
    EXPECT_EQ(static_cast<int>(t.route(a, b, {2, 0, 1}).size()), t.hops(a, b));
    EXPECT_LE(t.hops(a, b), spec.nx / 2 + spec.ny / 2 + spec.nz / 2 + 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusSweep,
                         ::testing::Values(TorusCase{4, 4, 4}, TorusCase{8, 4, 2},
                                           TorusCase{16, 8, 8}, TorusCase{5, 3, 2}));

// ---------------------------------------------------------------------------
// 1D arteries: characteristics invertibility over the physiological range
// ---------------------------------------------------------------------------

struct ArteryCase {
  double beta;
  double A_factor;
  double U;
};

class ArteryCharSweep : public ::testing::TestWithParam<ArteryCase> {};

TEST_P(ArteryCharSweep, CharacteristicsBijective) {
  const auto c = GetParam();
  nektar1d::VesselParams p;
  p.beta = c.beta;
  nektar1d::Artery a(p);
  const double A = c.A_factor * p.A0;
  const double w1 = a.W1(A, c.U), w2 = a.W2(A, c.U);
  double A2, U2;
  a.from_characteristics(w1, w2, A2, U2);
  EXPECT_NEAR(A2, A, 1e-10 * A);
  EXPECT_NEAR(U2, c.U, 1e-10 * (1.0 + std::fabs(c.U)));
  // subcritical check: |U| < c for physiological states
  EXPECT_LT(std::fabs(c.U), a.wave_speed(A));
}

INSTANTIATE_TEST_SUITE_P(States, ArteryCharSweep,
                         ::testing::Values(ArteryCase{1e5, 0.8, -20.0},
                                           ArteryCase{1e5, 1.0, 0.0},
                                           ArteryCase{1e5, 1.3, 60.0},
                                           ArteryCase{4e5, 0.9, 30.0},
                                           ArteryCase{4e4, 1.1, 10.0}));

// ---------------------------------------------------------------------------
// scales: Eq. (1) invariants over random scale maps
// ---------------------------------------------------------------------------

class ScaleSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScaleSweep, ReynoldsInvariantUnderRandomMaps) {
  std::mt19937 gen(GetParam());
  std::uniform_real_distribution<double> d(0.1, 10.0);
  coupling::ScaleMap s;
  s.L_ns = d(gen);
  s.L_dpd = 100.0 * d(gen);
  s.nu_ns = d(gen);
  s.nu_dpd = d(gen);
  const double v = d(gen);
  EXPECT_NEAR(s.reynolds_ns(v), s.reynolds_dpd(v), 1e-10 * (1.0 + s.reynolds_ns(v)));
  EXPECT_NEAR(s.velocity_dpd_to_ns(s.velocity_ns_to_dpd(v)), v, 1e-12 * v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------------
// CG: solves random SPD systems across sizes
// ---------------------------------------------------------------------------

class CgSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgSizeSweep, RandomSpdSystems) {
  const std::size_t n = GetParam();
  std::mt19937 gen(static_cast<unsigned>(n));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  // SPD: tridiagonal dominant + random symmetric perturbation; off[i]
  // couples rows i and i + 1
  la::Vector diag(n), off(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = 4.0 + std::fabs(dist(gen));
    if (i + 1 < n) off[i] = dist(gen);
  }
  la::LinearOperator op = [&](const double* x, double* y) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      if (i > 0) s += off[i - 1] * x[i - 1];
      s += diag[i] * x[i];
      if (i + 1 < n) s += off[i] * x[i + 1];
      y[i] = s;
    }
  };
  la::Vector xref(n);
  for (auto& v : xref) v = dist(gen);
  la::Vector b(n);
  op(xref.data(), b.data());
  la::Vector x(n, 0.0);
  auto res = la::cg_solve(op, b, x, la::jacobi_preconditioner(diag), {.rtol = 1e-12});
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgSizeSweep, ::testing::Values(1u, 2u, 7u, 33u, 150u, 640u));

}  // namespace
