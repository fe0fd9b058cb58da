// Tests for the spectral-element core: GLL machinery, discretization,
// operators, Helmholtz/Poisson solves, and Navier-Stokes validation against
// analytic flows (Poiseuille, Taylor-Green, Womersley).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <deque>
#include <iomanip>
#include <optional>
#include <ostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "la/cg.hpp"
#include "la/simd.hpp"
#include "reference/sem_reference.hpp"
#include "resilience/blob_la.hpp"
#include "sem/discretization.hpp"
#include "sem/gll.hpp"
#include "sem/helmholtz.hpp"
#include "sem/navier_stokes.hpp"
#include "sem/operators.hpp"
#include "telemetry/registry.hpp"

namespace {

// ---------------- GLL ----------------

TEST(Gll, LegendreKnownValues) {
  EXPECT_DOUBLE_EQ(sem::legendre(0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(sem::legendre(1, 0.3), 0.3);
  EXPECT_NEAR(sem::legendre(2, 0.5), 0.5 * (3 * 0.25 - 1), 1e-15);
  EXPECT_NEAR(sem::legendre(5, 1.0), 1.0, 1e-15);
  EXPECT_NEAR(sem::legendre(5, -1.0), -1.0, 1e-15);
}

TEST(Gll, DerivEndpoints) {
  // P'_n(1) = n(n+1)/2; P'_n(-1) = (-1)^{n-1} n(n+1)/2
  EXPECT_NEAR(sem::legendre_deriv(4, 1.0), 10.0, 1e-12);
  EXPECT_NEAR(sem::legendre_deriv(4, -1.0), -10.0, 1e-12);
  EXPECT_NEAR(sem::legendre_deriv(5, -1.0), 15.0, 1e-12);
}

class GllOrders : public ::testing::TestWithParam<int> {};

TEST_P(GllOrders, WeightsSumToTwo) {
  auto r = sem::gll_rule(GetParam());
  double s = 0.0;
  for (double w : r.weights) s += w;
  EXPECT_NEAR(s, 2.0, 1e-13);
}

TEST_P(GllOrders, NodesSymmetricAndSorted) {
  auto r = sem::gll_rule(GetParam());
  const std::size_t n = r.nodes.size();
  EXPECT_DOUBLE_EQ(r.nodes[0], -1.0);
  EXPECT_DOUBLE_EQ(r.nodes[n - 1], 1.0);
  for (std::size_t i = 1; i < n; ++i) EXPECT_LT(r.nodes[i - 1], r.nodes[i]);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r.nodes[i], -r.nodes[n - 1 - i], 1e-13);
}

TEST_P(GllOrders, QuadratureExactForPolynomials) {
  // GLL with P+1 points integrates degree <= 2P-1 exactly.
  const int P = GetParam();
  auto r = sem::gll_rule(P);
  for (int deg = 0; deg <= 2 * P - 1; ++deg) {
    double s = 0.0;
    for (std::size_t i = 0; i < r.nodes.size(); ++i)
      s += r.weights[i] * std::pow(r.nodes[i], deg);
    const double exact = deg % 2 == 1 ? 0.0 : 2.0 / (deg + 1);
    EXPECT_NEAR(s, exact, 1e-12) << "P=" << P << " deg=" << deg;
  }
}

TEST_P(GllOrders, DiffMatrixExactOnPolynomials) {
  const int P = GetParam();
  auto r = sem::gll_rule(P);
  auto D = sem::gll_diff_matrix(r);
  // d/dx of x^P sampled at nodes
  la::Vector f(r.nodes.size());
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = std::pow(r.nodes[i], P);
  auto df = D.matvec(f);
  for (std::size_t i = 0; i < f.size(); ++i)
    EXPECT_NEAR(df[i], P * std::pow(r.nodes[i], P - 1), 1e-10);
}

TEST_P(GllOrders, DiffMatrixKillsConstants) {
  auto r = sem::gll_rule(GetParam());
  auto D = sem::gll_diff_matrix(r);
  la::Vector ones(r.nodes.size(), 1.0);
  auto d = D.matvec(ones);
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_NEAR(d[i], 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Orders, GllOrders, ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(Gll, LagrangeInterpolationReproducesPolynomial) {
  auto r = sem::gll_rule(6);
  la::Vector f(r.nodes.size());
  auto poly = [](double x) { return 1.0 + x - 2.0 * x * x + 0.5 * x * x * x; };
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = poly(r.nodes[i]);
  std::array<double, 7> basis{};
  for (double x : {-0.93, -0.2, 0.0, 0.41, 0.99}) {
    sem::lagrange_basis_at(r, x, basis.data());
    double s = 0.0;
    for (std::size_t k = 0; k < basis.size(); ++k) s += basis[k] * f[k];
    EXPECT_NEAR(s, poly(x), 1e-12);
  }
}

TEST(Gll, LagrangeBasisAtNodeIsDelta) {
  auto r = sem::gll_rule(4);
  std::array<double, 5> b;
  b.fill(-1.0);
  sem::lagrange_basis_at(r, r.nodes[2], b.data());
  for (std::size_t k = 0; k < b.size(); ++k) EXPECT_DOUBLE_EQ(b[k], k == 2 ? 1.0 : 0.0);
}

// ---------------- Discretization ----------------

TEST(Disc, NodeCountContinuity) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 5);
  // (4*5+1) * (2*5+1) lattice points
  EXPECT_EQ(d.num_nodes(), 21u * 11u);
}

TEST(Disc, SharedEdgeNodesIdentical) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 2, 1);
  sem::Discretization d(m, 4);
  const std::size_t e0 = m.cell_index(0, 0), e1 = m.cell_index(1, 0);
  for (int b = 0; b <= 4; ++b)
    EXPECT_EQ(d.global_node(e0, 4, b), d.global_node(e1, 0, b));
}

TEST(Disc, BoundaryNodeSetsCoverTags) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 4);
  // inlet: x = 0 line has 2*4+1 nodes
  EXPECT_EQ(d.boundary_nodes(mesh::kInlet).size(), 9u);
  EXPECT_EQ(d.boundary_nodes(mesh::kOutlet).size(), 9u);
  for (std::size_t g : d.boundary_nodes(mesh::kInlet)) EXPECT_DOUBLE_EQ(d.node_x(g), 0.0);
}

TEST(Disc, EvaluateReproducesField) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 6);
  la::Vector f(d.num_nodes());
  auto fn = [](double x, double y) { return std::sin(x) * std::cos(2 * y); };
  for (std::size_t g = 0; g < d.num_nodes(); ++g) f[g] = fn(d.node_x(g), d.node_y(g));
  for (double x : {0.1, 0.77, 1.5, 1.99})
    for (double y : {0.05, 0.51, 0.93})
      EXPECT_NEAR(sem::evaluate(d, {x, y}, f), fn(x, y), 2e-6);
}

TEST(Disc, EvaluateOutsideThrows) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 3);
  la::Vector f(d.num_nodes(), 1.0);
  EXPECT_THROW(sem::evaluate(d, {-0.5, 0.5}, f), std::out_of_range);
  EXPECT_THROW(sem::evaluate(d, {2.5, 0.5}, f), std::out_of_range);
}

TEST(Disc, LocateRespectsMask) {
  auto m = mesh::QuadMesh::channel_with_cavity(10.0, 1.0, 4.0, 6.0, 1.0, 10, 2);
  sem::Discretization d(m, 3);
  EXPECT_TRUE(d.locate({5.0, 1.5}).has_value());   // inside cavity
  EXPECT_FALSE(d.locate({1.0, 1.5}).has_value());  // above channel, outside cavity
}

// ---------------- Operators ----------------

TEST(Ops, StiffnessSymmetricPositive) {
  auto m = mesh::QuadMesh::channel(1.0, 1.0, 2, 2);
  sem::Discretization d(m, 3);
  sem::Operators ops(d);
  const std::size_t n = d.num_nodes();
  // check symmetry on random vectors: x^T K y == y^T K x, and x^T K x >= 0
  la::Vector x(n), y(n), Kx, Ky;
  for (std::size_t g = 0; g < n; ++g) {
    x[g] = std::sin(3.0 * g);
    y[g] = std::cos(5.0 * g);
  }
  ops.apply_stiffness(x, Kx);
  ops.apply_stiffness(y, Ky);
  double xKy = 0.0, yKx = 0.0, xKx = 0.0;
  for (std::size_t g = 0; g < n; ++g) {
    xKy += x[g] * Ky[g];
    yKx += y[g] * Kx[g];
    xKx += x[g] * Kx[g];
  }
  EXPECT_NEAR(xKy, yKx, 1e-9 * (1.0 + std::fabs(xKy)));
  EXPECT_GT(xKx, 0.0);
}

TEST(Ops, GradientSpectralAccuracy) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 8);
  sem::Operators ops(d);
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::sin(d.node_x(g)) * std::exp(d.node_y(g));
  decltype(ops)::Fields grad;
  ops.gradient(f, grad);
  double max_err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    max_err = std::max(max_err,
                       std::fabs(grad[0][g] - std::cos(d.node_x(g)) * std::exp(d.node_y(g))));
  }
  EXPECT_LT(max_err, 1e-7);
}

TEST(Ops, IntegralOfOneIsArea) {
  auto m = mesh::QuadMesh::channel_with_cavity(10.0, 1.0, 4.0, 6.0, 1.0, 20, 2);
  sem::Discretization d(m, 4);
  sem::Operators ops(d);
  la::Vector ones(d.num_nodes(), 1.0);
  // channel 10x1 plus cavity 2x1
  EXPECT_NEAR(ops.integral(ones), 12.0, 1e-10);
}

// ---------------- Helmholtz / Poisson ----------------

TEST(Helmholtz, ManufacturedDirichletSolution) {
  // -nu lap u + lambda u = f with u* = sin(pi x) sin(pi y) on [0,1]^2
  auto m = mesh::QuadMesh::lid_cavity(3);
  sem::Discretization d(m, 7);
  sem::Operators ops(d);
  const double lambda = 2.0, nu = 0.5;
  sem::HelmholtzSolver hs(ops, lambda, nu, {mesh::kWall, mesh::kInlet});
  hs.options().rtol = 1e-12;

  la::Vector f(d.num_nodes());
  auto exact = [](double x, double y) { return std::sin(M_PI * x) * std::sin(M_PI * y); };
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    const double x = d.node_x(g), y = d.node_y(g);
    f[g] = (lambda + 2.0 * nu * M_PI * M_PI) * exact(x, y);
  }
  la::Vector u;
  auto res = hs.solve(f, [&](double x, double y) { return exact(x, y); }, u);
  EXPECT_TRUE(res.converged);
  double max_err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    max_err = std::max(max_err, std::fabs(u[g] - exact(d.node_x(g), d.node_y(g))));
  EXPECT_LT(max_err, 1e-6);
}

TEST(Helmholtz, InhomogeneousDirichletLifting) {
  // lap u = 0 with u = x on the boundary has solution u = x.
  auto m = mesh::QuadMesh::lid_cavity(2);
  sem::Discretization d(m, 5);
  sem::Operators ops(d);
  sem::HelmholtzSolver hs(ops, 0.0, 1.0, {mesh::kWall, mesh::kInlet});
  hs.options().rtol = 1e-12;
  la::Vector f(d.num_nodes(), 0.0), u;
  auto res = hs.solve(f, [](double x, double) { return x; }, u);
  EXPECT_TRUE(res.converged);
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    EXPECT_NEAR(u[g], d.node_x(g), 1e-8);
}

TEST(Helmholtz, PureNeumannPoissonZeroMean) {
  // -lap u = f with f = cos(pi x) on [0,1]^2 (compatible: zero mean);
  // solution u = cos(pi x)/pi^2 + const; solver pins zero mean.
  auto m = mesh::QuadMesh::lid_cavity(3);
  sem::Discretization d(m, 7);
  sem::Operators ops(d);
  sem::HelmholtzSolver hs(ops, 0.0, 1.0, {});
  hs.options().rtol = 1e-12;
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::cos(M_PI * d.node_x(g));
  la::Vector u;
  auto res = hs.solve(f, [](double, double) { return 0.0; }, u);
  EXPECT_TRUE(res.converged);
  double max_err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    const double exact = std::cos(M_PI * d.node_x(g)) / (M_PI * M_PI);
    max_err = std::max(max_err, std::fabs(u[g] - exact));
  }
  EXPECT_LT(max_err, 1e-6);
  EXPECT_NEAR(ops.integral(u), 0.0, 1e-9);
}

// operator applies counted so far on this thread
double helmholtz_applies() {
  const auto counters = telemetry::Registry::local().counters();
  const auto it = counters.find("sem.apply.helmholtz");
  return it == counters.end() ? 0.0 : it->second.value;
}

// cg_solve restarts the series each solve; its first sample is the last
// solve's starting residual
double start_residual() {
  return telemetry::Registry::local().series().at("cg.residual").front();
}

// ||b||: a zero guess's starting residual
double rhs_norm(const la::Vector& b) {
  return std::sqrt(la::simd::dot(b.data(), b.data(), b.size()));
}

// the projector a solver on n nodes checkpoints
template <class Disc>
la::SolutionProjector saved_projector(const sem::HelmholtzSolver<Disc>& hs, std::size_t n) {
  resilience::BlobWriter w;
  hs.save_state(w);
  resilience::BlobReader r(w.data());
  la::SolutionProjector p;
  resilience::get_projector(r, p, n);
  r.expect_end();
  return p;
}

TEST(Helmholtz, ProjectorAcceleratesTimeSeries) {
  // A masked mesh keeps Jacobi CG, started from the successive-solution
  // projector's prediction. Its starting residual falls far below the zero
  // guess's once the stored solutions span the series. This rhs spans two
  // fields.
  sem::Discretization d(mesh::QuadMesh::channel_with_cavity(4.0, 1.0, 1.5, 2.5, 0.5, 8, 2), 4);
  sem::Operators ops(d);
  const std::vector<int> walls{mesh::kWall, mesh::kInlet};
  sem::HelmholtzSolver hs(ops, 10.0, 1.0, walls);
  const la::Vector bc(hs.dirichlet_nodes().size(), 0.0);
  la::Vector u;
  for (int step = 0; step < 8; ++step) {
    la::Vector f(d.num_nodes());
    for (std::size_t g = 0; g < d.num_nodes(); ++g)
      f[g] = std::sin(M_PI * d.node_x(g) + 0.1 * step) * std::sin(M_PI * d.node_y(g));
    const auto res = hs.solve_with_values(f, bc, u);
    const double predicted = start_residual();
    const double zero_guess =
        rhs_norm(sem::reference::helmholtz_rhs(ops, 10.0, 1.0, walls, f,
                                               [](double, double) { return 0.0; }));
    if (step == 0) {
      EXPECT_DOUBLE_EQ(predicted, zero_guess);  // nothing stored yet
      EXPECT_GT(res.iterations, 0u);
    } else if (step >= 3) {
      EXPECT_LT(predicted, 1e-6 * zero_guess) << "step " << step;
    }
  }
  EXPECT_GT(saved_projector(hs, d.num_nodes()).size(), 0u);
}

TEST(Helmholtz, RejectsMalformedProjectorCheckpoint) {
  // The masked (Jacobi) solver's next solve would pair basis vector k with
  // image k over every node, so a checkpoint with unpaired or missized
  // projector vectors must not load.
  sem::Discretization d(mesh::QuadMesh::channel_with_cavity(4.0, 1.0, 1.5, 2.5, 0.5, 8, 2), 4);
  sem::Operators ops(d);
  sem::HelmholtzSolver hs(ops, 10.0, 1.0, {mesh::kWall, mesh::kInlet});
  const std::size_t n = d.num_nodes();
  const auto load = [&](std::deque<la::Vector> basis, std::deque<la::Vector> images) {
    resilience::BlobWriter w;
    resilience::put_vector_deque(w, basis);
    resilience::put_vector_deque(w, images);
    resilience::BlobReader r(w.data());
    hs.load_state(r);
  };
  const la::Vector full(n, 1.0), short_by_one(n - 1, 1.0);
  EXPECT_THROW(load({full, full, full}, {full}), resilience::CorruptError);
  EXPECT_THROW(load({full}, {short_by_one}), resilience::CorruptError);
  EXPECT_NO_THROW(load({full}, {full}));
}

// ---- the fast-diagonalisation solve against Jacobi CG ------------------

struct FastDiag2dCase {
  const char* name;
  mesh::QuadMesh mesh;
  int P;
  std::vector<int> dirichlet;
  double lambda, nu;
  bool box;  ///< the box eigenbases apply; otherwise the solver falls back to Jacobi
};

// gtest prints a parameter in the test listing; the name keeps it readable
void PrintTo(const FastDiag2dCase& c, std::ostream* os) { *os << c.name; }

const std::vector<FastDiag2dCase>& fast_diag_2d_cases() {
  using mesh::kInlet, mesh::kOutlet, mesh::kWall;
  // a channel whose inlet covers only the lower half of the west side
  auto half_inlet = [] {
    auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
    m.retag_boundary([](const mesh::BoundaryFace& f) {
      return f.side == mesh::Side::West && f.mid_y < 0.5 ? kInlet : kWall;
    });
    return m;
  };
  static const std::vector<FastDiag2dCase> cases = {
      // the sweep_warm mesh: its velocity solve (outlet natural) and
      // pressure solve (outlet only)
      {"ChannelVelocity", mesh::QuadMesh::channel(4.0, 1.0, 8, 2), 4, {kWall, kInlet}, 500.0,
       0.05, true},
      {"ChannelPressure", mesh::QuadMesh::channel(4.0, 1.0, 8, 2), 4, {kOutlet}, 0.0, 1.0,
       true},
      {"LidCavity", mesh::QuadMesh::lid_cavity(3), 6, {kWall, kInlet}, 1.5, 0.7, true},
      {"PureNeumannPoisson", mesh::QuadMesh::channel(2.0, 1.5, 4, 3), 5, {}, 0.0, 1.0, true},
      {"NeumannHelmholtz", mesh::QuadMesh::lid_cavity(2), 5, {}, 2.0, 1.0, true},
      {"Anisotropic", mesh::QuadMesh::channel(2.0, 0.7, 3, 4), 5, {kInlet, kOutlet}, 3.0, 0.2,
       true},
      {"OrderOne", mesh::QuadMesh::channel(1.0, 2.0, 5, 3), 1, {kWall}, 2.0, 1.0, true},
      {"OrderEight", mesh::QuadMesh::channel(1.5, 1.0, 2, 1), 8, {kInlet, kWall}, 10.0, 0.1,
       true},
      {"MaskedCavity", mesh::QuadMesh::channel_with_cavity(4.0, 1.0, 1.5, 2.5, 0.5, 8, 2), 4,
       {kWall, kInlet}, 500.0, 0.05, false},
      {"PartlyDirichletSide", half_inlet(), 4, {kInlet}, 2.0, 1.0, false},
  };
  return cases;
}

class Helmholtz2dFastDiag : public ::testing::TestWithParam<FastDiag2dCase> {};

TEST_P(Helmholtz2dFastDiag, AgreesWithJacobiCg) {
  const FastDiag2dCase& c = GetParam();
  sem::Discretization d(c.mesh, c.P);
  sem::Operators ops(d);
  sem::HelmholtzSolver hs(ops, c.lambda, c.nu, c.dirichlet);
  // the Jacobi fallback stops at rtol; hold it tight enough for the bound below
  if (!c.box) hs.options().rtol = 1e-13;
  // a short series of smooth fields, so the Jacobi fallback's projector
  // guesses take part
  for (int s = 0; s < 3; ++s) {
    auto g = [s](double x, double y) { return std::cos(x + 0.5 * y + s); };
    la::Vector f(d.num_nodes());
    for (std::size_t k = 0; k < d.num_nodes(); ++k)
      f[k] = std::sin(2.0 * d.node_x(k) + 0.3 * s) * std::cos(1.7 * d.node_y(k)) +
             d.node_y(k) * d.node_y(k);
    la::Vector u;
    const auto res = hs.solve(f, g, u);
    EXPECT_TRUE(res.converged);
    if (c.box) {
      EXPECT_LE(res.iterations, 2u) << "solve " << s;
    } else if (s == 0) {
      EXPECT_GT(res.iterations, 2u) << "a masked or partly Dirichlet mesh takes Jacobi";
    }
    const la::Vector ref =
        sem::reference::helmholtz_jacobi_cg(ops, c.lambda, c.nu, c.dirichlet, f, g);
    double err = 0.0, scale = 0.0;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      err = std::max(err, std::fabs(u[k] - ref[k]));
      scale = std::max(scale, std::fabs(ref[k]));
    }
    EXPECT_LE(err, 1e-9 * scale) << "solve " << s;
    if (c.dirichlet.empty() && c.lambda == 0.0) {
      EXPECT_NEAR(ops.integral(u), 0.0, 1e-12 * scale);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, Helmholtz2dFastDiag, ::testing::ValuesIn(fast_diag_2d_cases()),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace

// ---------------- both dimensions: operators and Helmholtz ----------------

// One case per dimension for the typed OperatorsDims, HelmholtzDims and
// DiscDims suites: a Dirichlet-walled unit square (2D) or unit cube (3D) at
// order 6, and box(P), a 2 x 1.5 (x 1) box of measure kBoxMeasure on an
// anisotropic grid. run_mesh() is an e2e workload's box mesh (sweep_warm's;
// cdc3d_sem's box at an eighth of its elements and order 4), and
// run_solves() its velocity and pressure solves plus pure Neumann at
// lambda = 0. They sit outside the anonymous namespace so the discovered
// test names read <Suite>.<Test><Quad2d>.
template <class Boundary>
struct BoxSolve {
  const char* name;
  double lambda, nu;
  std::vector<Boundary> dirichlet;
};

struct Quad2d {
  using Disc = sem::Discretization;
  static Disc box(int P) { return {mesh::QuadMesh::channel(2.0, 1.5, 4, 3), P}; }
  static Disc run_mesh() { return {mesh::QuadMesh::channel(4.0, 1.0, 8, 2), 4}; }
  static std::vector<BoxSolve<int>> run_solves() {
    return {{"velocity", 500.0, 0.05, {mesh::kWall, mesh::kInlet}},
            {"pressure", 0.0, 1.0, {mesh::kOutlet}},
            {"pure Neumann", 0.0, 1.0, {}}};
  }
  Disc d{mesh::QuadMesh::lid_cavity(3), 6};
  sem::Operators<Disc> ops{d};
  std::vector<int> walls{mesh::kWall, mesh::kInlet};
};

struct Hex3d {
  using Disc = sem::Discretization3D;
  static Disc box(int P) { return {2.0, 1.5, 1.0, 3, 2, 2, P}; }
  static Disc run_mesh() { return {4.0, 1.0, 1.0, 4, 1, 2, 4}; }
  static std::vector<BoxSolve<sem::HexFace>> run_solves() {
    using F = sem::HexFace;
    return {{"velocity", 750.0, 0.05, {F::X0, F::Y0, F::Y1, F::Z0, F::Z1}},
            {"pressure", 0.0, 1.0, {F::X1}},
            {"pure Neumann", 0.0, 1.0, {}}};
  }
  Disc d{1.0, 1.0, 1.0, 2, 2, 2, 6};
  sem::Operators<Disc> ops{d};
  std::vector<sem::HexFace> walls{sem::HexFace::X0, sem::HexFace::X1, sem::HexFace::Y0,
                                  sem::HexFace::Y1, sem::HexFace::Z0, sem::HexFace::Z1};
};

namespace {

constexpr double kBoxMeasure = 3.0;
using DimCases = ::testing::Types<Quad2d, Hex3d>;

template <class Case>
class OperatorsDims : public ::testing::Test {};
TYPED_TEST_SUITE(OperatorsDims, DimCases);

TYPED_TEST(OperatorsDims, MassSumsToMeasure) {
  const auto d = TypeParam::box(5);
  sem::Operators ops(d);
  double sum = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) sum += ops.mass_diag()[g];
  EXPECT_NEAR(sum, kBoxMeasure, 1e-11);
  EXPECT_NEAR(ops.integral(la::Vector(d.num_nodes(), 1.0)), kBoxMeasure, 1e-11);
}

TYPED_TEST(OperatorsDims, StiffnessAnnihilatesConstantsAndIsSymmetric) {
  const auto d = TypeParam::box(3);
  sem::Operators ops(d);
  const std::size_t n = d.num_nodes();
  la::Vector ones(n, 1.0), y;
  ops.apply_stiffness(ones, y);
  for (std::size_t g = 0; g < n; ++g) EXPECT_NEAR(y[g], 0.0, 1e-10);

  la::Vector x(n), z(n), Kx, Kz;
  for (std::size_t g = 0; g < n; ++g) {
    x[g] = std::sin(1.0 + 2.0 * static_cast<double>(g));
    z[g] = std::cos(0.5 * static_cast<double>(g));
  }
  ops.apply_stiffness(x, Kx);
  ops.apply_stiffness(z, Kz);
  double xKz = 0.0, zKx = 0.0;
  for (std::size_t g = 0; g < n; ++g) {
    xKz += x[g] * Kz[g];
    zKx += z[g] * Kx[g];
  }
  EXPECT_NEAR(xKz, zKx, 1e-9 * (1.0 + std::fabs(xKz)));
}

TYPED_TEST(OperatorsDims, GradientOfLinearFieldExact) {
  const auto d = TypeParam::box(4);
  sem::Operators ops(d);
  constexpr std::array<double, 3> slope{3.0, -2.0, 0.5};
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    f[g] = 1.0;
    for (std::size_t k = 0; k < ops.kDim; ++k) f[g] += slope[k] * d.node(g)[k];
  }
  typename decltype(ops)::Fields grad;
  ops.gradient(f, grad);
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    for (std::size_t k = 0; k < ops.kDim; ++k) EXPECT_NEAR(grad[k][g], slope[k], 1e-10);
}

TYPED_TEST(OperatorsDims, DivergenceOfSolenoidalFieldZero) {
  // u_k = +-x_{k+1}: no component varies along its own axis (2D: u = y,
  // v = -x; 3D: u = y, v = -z, w = x)
  const auto d = TypeParam::box(5);
  sem::Operators ops(d);
  typename decltype(ops)::Fields u;
  for (std::size_t k = 0; k < ops.kDim; ++k) {
    u[k].resize(d.num_nodes());
    for (std::size_t g = 0; g < d.num_nodes(); ++g)
      u[k][g] = (k % 2 ? -1.0 : 1.0) * d.node(g)[(k + 1) % ops.kDim];
  }
  la::Vector div;
  ops.divergence(u, div);
  for (std::size_t g = 0; g < d.num_nodes(); ++g) EXPECT_NEAR(div[g], 0.0, 1e-10);
}

template <class Case>
class DiscDims : public ::testing::Test {};
TYPED_TEST_SUITE(DiscDims, DimCases);

TYPED_TEST(DiscDims, EvaluateRejectsNonFinitePoints) {
  // a NaN, infinite or far-out coordinate on any axis is out of range, and
  // must be rejected before it reaches an integer cast
  const auto d = TypeParam::box(2);
  const la::Vector f(d.num_nodes(), 1.0);
  const auto inside = d.node(d.num_nodes() / 2);
  EXPECT_NO_THROW(sem::evaluate(d, inside, f));
  for (std::size_t k = 0; k < TypeParam::Disc::kDim; ++k)
    for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300}) {
      auto x = inside;
      x[k] = bad;
      EXPECT_THROW(sem::evaluate(d, x, f), std::out_of_range) << "axis " << k << " = " << bad;
    }
}

TYPED_TEST(DiscDims, RejectsOrderAboveStackBasisCap) {
  // sem::evaluate keeps one basis of order + 1 values per axis on the stack
  EXPECT_EQ(sem::kMaxOrder, 23);
  const auto d = TypeParam::box(sem::kMaxOrder);
  auto x = d.element_size();
  for (double& c : x) c *= 0.3;  // not a node: every basis value is computed
  EXPECT_NEAR(sem::evaluate(d, x, la::Vector(d.num_nodes(), 1.0)), 1.0, 1e-9);
  EXPECT_THROW(TypeParam::box(sem::kMaxOrder + 1), std::invalid_argument);
}

TYPED_TEST(DiscDims, EvaluatorMatchesReferenceBitwise) {
  // sem::evaluate, single- and multi-field, against the scalar allocating
  // evaluation in tests/reference: same element, same reference
  // coordinates, same basis values and the same summation order, so every
  // value is bitwise equal, and both reject the same points
  using Disc = typename TypeParam::Disc;
  using Point = std::array<double, Disc::kDim>;
  std::vector<Disc> discs{TypeParam::box(5)};
  if constexpr (Disc::kDim == 2)
    discs.emplace_back(mesh::QuadMesh::channel_with_cavity(10.0, 1.0, 4.0, 6.0, 1.0, 10, 2), 4);
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::size_t compared = 0;
  for (const Disc& d : discs) {
    // a node on an edge with a masked cell above or to its right locates
    // into that cell, and both reject it
    const bool masked = &d != &discs.front();
    std::array<la::Vector, 3> f;
    for (std::size_t c = 0; c < f.size(); ++c) {
      f[c].resize(d.num_nodes());
      for (std::size_t g = 0; g < d.num_nodes(); ++g)
        f[c][g] = std::sin(0.37 * static_cast<double>(g) + 1.1 * static_cast<double>(c));
    }
    Point lo = d.node(0), hi = d.node(0);
    for (std::size_t g = 0; g < d.num_nodes(); ++g)
      for (std::size_t k = 0; k < Disc::kDim; ++k) {
        lo[k] = std::min(lo[k], d.node(g)[k]);
        hi[k] = std::max(hi[k], d.node(g)[k]);
      }
    const Point h = d.element_size();
    auto random_point = [&] {
      Point x;
      for (std::size_t k = 0; k < Disc::kDim; ++k) x[k] = lo[k] + u01(rng) * (hi[k] - lo[k]);
      return x;
    };
    auto corner = [&](std::size_t k) {  // a random element-corner coordinate on axis k
      const long cells = std::lround((hi[k] - lo[k]) / h[k]);
      const long i = std::uniform_int_distribution<long>(0, cells)(rng);
      return lo[k] + h[k] * static_cast<double>(i);
    };

    // (point, whether it must lie inside the domain)
    std::vector<std::pair<Point, bool>> pts;
    for (std::size_t g = 0; g < d.num_nodes(); ++g) pts.emplace_back(d.node(g), !masked);
    for (int i = 0; i < 300; ++i) pts.emplace_back(random_point(), false);
    for (std::size_t i = 0; i < 300; ++i) {
      // odd i: an element corner; even i: a point on an element edge (2D)
      // or face (3D); domain faces are among both
      Point x = random_point();
      for (std::size_t k = 0; k < Disc::kDim; ++k)
        if (i % 2 || k == (i / 2) % Disc::kDim) x[k] = corner(k);
      pts.emplace_back(x, false);
    }
    for (std::size_t k = 0; k < Disc::kDim; ++k)
      for (int i = 0; i < 10; ++i)
        for (double off : {0.0, 1e-13}) {
          // on a domain face, and 1e-13 outside it: within the 3D box's
          // 1e-12 margin, so those must evaluate; 2D rejects the near faces'
          // offsets and snaps the far ones onto the last cell
          Point a = random_point(), b = a;
          a[k] = lo[k] - off;
          b[k] = hi[k] + off;
          pts.emplace_back(a, Disc::kDim == 3);
          pts.emplace_back(b, Disc::kDim == 3);
        }

    // the value, or nullopt where the point is rejected
    auto attempt = [](auto fn) -> std::optional<decltype(fn())> {
      try {
        return fn();
      } catch (const std::out_of_range&) {
        return std::nullopt;
      }
    };
    for (const auto& [x, inside] : pts) {
      std::ostringstream where;
      where << std::setprecision(17) << "x =";
      for (double c : x) where << ' ' << c;
      const auto all = attempt([&] { return sem::evaluate(d, x, f); });
      for (std::size_t c = 0; c < f.size(); ++c) {
        auto reference = [&](auto... v) { return sem::reference::evaluate(d, f[c], v...); };
        const auto ref = attempt([&] { return sem::eval_at(reference, x); });
        const auto one = attempt([&] { return sem::evaluate(d, x, f[c]); });
        ASSERT_TRUE(ref || !inside) << where.str();
        ASSERT_EQ(one.has_value(), ref.has_value()) << where.str();
        ASSERT_EQ(all.has_value(), ref.has_value()) << where.str();
        if (!ref) continue;
        EXPECT_EQ(*one, *ref) << where.str() << " field " << c;
        EXPECT_EQ((*all)[c], *ref) << where.str() << " field " << c;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 3000u);
}

template <class Case>
class HelmholtzDims : public ::testing::Test {};
TYPED_TEST_SUITE(HelmholtzDims, DimCases);

TYPED_TEST(HelmholtzDims, BoxSolvesStartAtTheAnswer) {
  // A box-mesh solve starts at the fast-diagonalisation answer, so CG only
  // checks it: the starting residual is within rtol ||b|| and no iteration
  // runs. A solve makes one operator apply for that check plus one for a
  // nonzero lift, and the projector stays empty.
  using Disc = typename TypeParam::Disc;
  const Disc d = TypeParam::run_mesh();
  const sem::Operators<Disc> ops(d);
  const std::size_t n = d.num_nodes();
  for (const auto& c : TypeParam::run_solves()) {
    SCOPED_TRACE(c.name);
    sem::HelmholtzSolver hs(ops, c.lambda, c.nu, c.dirichlet);
    for (int s = 0; s < 4; ++s) {
      const bool zero_lift = s % 2 == 0;
      const auto g = [&](auto... x) { return zero_lift ? 0.0 : std::cos((x + ...) + s); };
      la::Vector f(n);
      for (std::size_t k = 0; k < n; ++k) {
        const auto x = d.node(k);
        f[k] = std::sin(2.0 * x[0] + 0.3 * s) * std::cos(1.7 * x[1]) + x.back() * x.back();
      }
      const double before = helmholtz_applies();
      la::Vector u;
      const auto res = hs.solve(f, g, u);
      const double applies = helmholtz_applies() - before;
      const double bnorm =
          rhs_norm(sem::reference::helmholtz_rhs(ops, c.lambda, c.nu, c.dirichlet, f, g));
      EXPECT_TRUE(res.converged) << "solve " << s;
      EXPECT_EQ(res.iterations, 0u) << "solve " << s;
      EXPECT_LE(start_residual(), hs.options().rtol * bnorm) << "solve " << s;
      EXPECT_EQ(applies, zero_lift || c.dirichlet.empty() ? 1.0 : 2.0) << "solve " << s;
    }
    EXPECT_EQ(saved_projector(hs, n).size(), 0u);
  }
}

TYPED_TEST(HelmholtzDims, RejectsMissizedInput) {
  TypeParam c;
  sem::HelmholtzSolver hs(c.ops, 1.0, 1.0, c.walls);
  const std::size_t n = c.d.num_nodes(), nb = hs.dirichlet_nodes().size();
  la::Vector u;
  EXPECT_NO_THROW(hs.solve_with_values(la::Vector(n, 0.0), la::Vector(nb, 0.0), u));
  EXPECT_THROW(hs.solve_with_values(la::Vector(n - 1, 0.0), la::Vector(nb, 0.0), u),
               std::invalid_argument);
  EXPECT_THROW(hs.solve_with_values(la::Vector(n, 0.0), la::Vector(nb - 1, 0.0), u),
               std::invalid_argument);
  EXPECT_THROW(hs.solve_with_values(la::Vector(n, 0.0), la::Vector(nb + 1, 0.0), u),
               std::invalid_argument);
}

TYPED_TEST(HelmholtzDims, SolverBuiltLikeAnotherMatchesAFreshOne) {
  // the (like, lambda, nu) constructor reuses like's boundaries and, in 3D,
  // its eigenbases; it must solve bitwise as a freshly built solver does
  TypeParam c;
  sem::HelmholtzSolver like(c.ops, 1.0, 1.0, c.walls);
  sem::HelmholtzSolver shared(like, 7.5, 0.3), fresh(c.ops, 7.5, 0.3, c.walls);
  ASSERT_EQ(shared.dirichlet_nodes(), fresh.dirichlet_nodes());
  const std::size_t n = c.d.num_nodes();
  la::Vector f(n);
  for (std::size_t g = 0; g < n; ++g) f[g] = std::cos(2.0 * c.d.node_x(g) - c.d.node_y(g));
  const la::Vector bc(fresh.dirichlet_nodes().size(), 0.25);
  la::Vector us, uf;
  EXPECT_EQ(shared.solve_with_values(f, bc, us).iterations,
            fresh.solve_with_values(f, bc, uf).iterations);
  for (std::size_t g = 0; g < n; ++g) ASSERT_EQ(us[g], uf[g]) << "node " << g;
}

// ---------------- Navier-Stokes ----------------

TEST(Ns2d, PoiseuilleSteadyState) {
  // Channel flow with parabolic inlet; the steady solution is the same
  // parabola everywhere and dp/dx = -2 nu Umax / h^2 * ... (h = half height).
  const double H = 1.0, L = 2.0, numean = 0.05, Umax = 1.0;
  auto m = mesh::QuadMesh::channel(L, H, 6, 3);
  sem::Discretization d(m, 5);
  sem::NavierStokes<sem::Discretization>::Params prm;
  prm.nu = numean;
  prm.dt = 2e-3;
  sem::NavierStokes<sem::Discretization> ns(d, prm);
  auto poiseuille = [&](double, double y, double) { return 4.0 * Umax * y * (H - y) / (H * H); };
  ns.set_velocity_bc(mesh::kInlet, poiseuille,
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  // start from rest, march to steady state
  for (int s = 0; s < 600; ++s) ns.step();
  // centerline velocity approaches Umax through the whole channel
  for (double x : {0.3, 1.0, 1.7}) {
    EXPECT_NEAR(sem::evaluate(d, {x, 0.5}, ns.u()), Umax, 0.03) << "x=" << x;
    EXPECT_NEAR(sem::evaluate(d, {x, 0.5}, ns.v()), 0.0, 0.02);
  }
  // no-slip at the wall
  EXPECT_NEAR(sem::evaluate(d, {1.0, 0.0}, ns.u()), 0.0, 1e-10);
}

TEST(Ns2d, TaylorGreenDecay) {
  // Exact NS solution on [0,1]^2: u = sin(pi x) cos(pi y) F(t),
  // v = -cos(pi x) sin(pi y) F(t), F = exp(-2 pi^2 nu t).
  const double nu = 0.02;
  auto m = mesh::QuadMesh::lid_cavity(4);
  sem::Discretization d(m, 6);
  sem::NavierStokes<sem::Discretization>::Params prm;
  prm.nu = nu;
  prm.dt = 1e-3;
  prm.pressure_dirichlet_faces = {};  // enclosed flow: pure-Neumann pressure
  sem::NavierStokes<sem::Discretization> ns(d, prm);
  auto F = [nu](double t) { return std::exp(-2.0 * M_PI * M_PI * nu * t); };
  auto ue = [&](double x, double y, double t) {
    return std::sin(M_PI * x) * std::cos(M_PI * y) * F(t);
  };
  auto ve = [&](double x, double y, double t) {
    return -std::cos(M_PI * x) * std::sin(M_PI * y) * F(t);
  };
  ns.set_velocity_bc(mesh::kWall, ue, ve);
  ns.set_velocity_bc(mesh::kInlet, ue, ve);  // lid tag doubles as wall here
  ns.set_initial(ue, ve);
  const int steps = 100;
  for (int s = 0; s < steps; ++s) ns.step();
  const double T = ns.time();
  double max_err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    max_err = std::max(max_err, std::fabs(ns.u()[g] - ue(d.node_x(g), d.node_y(g), T)));
  // first-order splitting: expect O(dt) accuracy
  EXPECT_LT(max_err, 0.02);
  // amplitude decays
  EXPECT_LT(ns.max_speed(), 1.0);
}

TEST(Ns2d, WomersleyOscillatoryChannel) {
  // Channel driven by body force A cos(w t); the exact periodic solution is
  // the Womersley profile. Validate the centerline amplitude after several
  // periods against the analytic complex solution.
  const double H = 1.0, L = 1.0, nu = 0.05, A = 1.0, w = 2.0 * M_PI;
  auto m = mesh::QuadMesh::channel(L, H, 2, 6);
  sem::Discretization d(m, 6);
  sem::NavierStokes<sem::Discretization>::Params prm;
  prm.nu = nu;
  prm.dt = 2.5e-3;
  prm.pressure_dirichlet_faces = {mesh::kInlet, mesh::kOutlet};
  sem::NavierStokes<sem::Discretization> ns(d, prm);
  ns.set_natural_bc(mesh::kInlet);
  ns.set_natural_bc(mesh::kOutlet);
  ns.set_body_force([&](double, double, double t) { return A * std::cos(w * t); },
                    [](double, double, double) { return 0.0; });

  // exact: u(y,t) = Re[ (A / (i w)) (1 - cosh(k(y-h/2)) / cosh(k h/2)) e^{iwt} ],
  // k = sqrt(i w / nu)
  auto exact_u = [&](double y, double t) {
    const std::complex<double> iw(0.0, w);
    const std::complex<double> k = std::sqrt(iw / nu);
    const std::complex<double> num = std::cosh(k * (y - H / 2));
    const std::complex<double> den = std::cosh(k * (H / 2));
    const std::complex<double> prof = (A / iw) * (1.0 - num / den);
    return (prof * std::exp(std::complex<double>(0.0, w * t))).real();
  };

  // integrate 3 periods to wash out the initial transient
  const int steps_per_period = static_cast<int>(std::lround(1.0 / (prm.dt)));
  for (int s = 0; s < 3 * steps_per_period; ++s) ns.step();
  // compare over the following half period at the centerline
  double max_err = 0.0, max_amp = 0.0;
  for (int s = 0; s < steps_per_period / 2; ++s) {
    ns.step();
    const double uc = sem::evaluate(d, {0.5, 0.5}, ns.u());
    const double ex = exact_u(0.5, ns.time());
    max_err = std::max(max_err, std::fabs(uc - ex));
    max_amp = std::max(max_amp, std::fabs(ex));
  }
  EXPECT_GT(max_amp, 0.05);  // sanity: the flow actually oscillates
  EXPECT_LT(max_err / max_amp, 0.08);
}

TEST(Ns2d, CavityFlowConservesMassAtWalls) {
  auto m = mesh::QuadMesh::lid_cavity(4);
  sem::Discretization d(m, 5);
  sem::NavierStokes<sem::Discretization>::Params prm;
  prm.nu = 0.05;
  prm.dt = 2e-3;
  prm.pressure_dirichlet_faces = {};
  sem::NavierStokes<sem::Discretization> ns(d, prm);
  ns.set_velocity_bc(mesh::kInlet, [](double, double, double) { return 1.0; },
                     [](double, double, double) { return 0.0; });
  for (int s = 0; s < 100; ++s) ns.step();
  // interior divergence should be small relative to the lid speed scale
  la::Vector div(d.num_nodes());
  sem::Operators ops(d);
  ops.divergence(ns.velocity(), div);
  double interior_rms = 0.0;
  std::size_t cnt = 0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    const double x = d.node_x(g), y = d.node_y(g);
    if (x < 0.2 || x > 0.8 || y < 0.2 || y > 0.8) continue;
    interior_rms += div[g] * div[g];
    ++cnt;
  }
  interior_rms = std::sqrt(interior_rms / cnt);
  EXPECT_LT(interior_rms, 0.2);
  // lid drives a recirculation: u below lid positive, deeper negative
  EXPECT_GT(sem::evaluate(d, {0.5, 0.95}, ns.u()), 0.1);
  EXPECT_LT(sem::evaluate(d, {0.5, 0.3}, ns.u()), 0.05);
}

TEST(Ns2d, ExplicitBcValuesOverrideFunctions) {
  auto m = mesh::QuadMesh::channel(1.0, 1.0, 2, 2);
  sem::Discretization d(m, 3);
  sem::NavierStokes<sem::Discretization>::Params prm;
  prm.dt = 1e-3;
  sem::NavierStokes<sem::Discretization> ns(d, prm);
  const auto& inlet = d.boundary_nodes(mesh::kInlet);
  std::vector<double> uvals(inlet.size(), 0.7), vvals(inlet.size(), 0.0);
  ns.set_velocity_bc_values(mesh::kInlet, uvals, vvals);
  ns.set_natural_bc(mesh::kOutlet);
  ns.step();
  for (std::size_t g : inlet) {
    if (d.node_y(g) == 0.0 || d.node_y(g) == 1.0) continue;  // wall corners
    EXPECT_NEAR(ns.u()[g], 0.7, 1e-9);
  }
}

TEST(Ns2d, StepCountsIterations) {
  // a box mesh starts every solve at its exact answer, so CG takes no
  // iteration; a masked mesh runs Jacobi CG and counts its iterations
  for (bool masked : {false, true}) {
    auto m = masked ? mesh::QuadMesh::channel_with_cavity(2.0, 1.0, 0.5, 1.5, 0.5, 4, 2)
                    : mesh::QuadMesh::channel(1.0, 1.0, 2, 2);
    sem::Discretization d(m, 4);
    sem::NavierStokes<sem::Discretization> ns(d, {});
    ns.set_velocity_bc(mesh::kInlet, [](double, double, double) { return 1.0; },
                       [](double, double, double) { return 0.0; });
    ns.set_natural_bc(mesh::kOutlet);
    const std::size_t iterations = ns.step();
    if (masked) {
      EXPECT_GT(iterations, 0u);
    } else {
      EXPECT_EQ(iterations, 0u);
    }
    EXPECT_DOUBLE_EQ(ns.time(), ns.dt());
  }
}

}  // namespace

namespace {

double taylor_green_error(int time_order, double dt, int steps) {
  const double nu = 0.02;
  auto m = mesh::QuadMesh::lid_cavity(4);
  sem::Discretization d(m, 7);
  sem::NavierStokes<sem::Discretization>::Params prm;
  prm.nu = nu;
  prm.dt = dt;
  prm.time_order = time_order;
  prm.pressure_dirichlet_faces = {};
  sem::NavierStokes<sem::Discretization> ns(d, prm);
  auto F = [nu](double t) { return std::exp(-2.0 * M_PI * M_PI * nu * t); };
  auto ue = [&](double x, double y, double t) {
    return std::sin(M_PI * x) * std::cos(M_PI * y) * F(t);
  };
  auto ve = [&](double x, double y, double t) {
    return -std::cos(M_PI * x) * std::sin(M_PI * y) * F(t);
  };
  ns.set_velocity_bc(mesh::kWall, ue, ve);
  ns.set_velocity_bc(mesh::kInlet, ue, ve);
  ns.set_initial(ue, ve);
  for (int s = 0; s < steps; ++s) ns.step();
  const double T = ns.time();
  double max_err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    max_err = std::max(max_err, std::fabs(ns.u()[g] - ue(d.node_x(g), d.node_y(g), T)));
  return max_err;
}

TEST(Ns2d, SecondOrderBeatsFirstOrder) {
  const double e1 = taylor_green_error(1, 2e-3, 100);
  const double e2 = taylor_green_error(2, 2e-3, 100);
  EXPECT_LT(e2, 0.2 * e1);
}

TEST(Ns2d, SecondOrderTemporalConvergence) {
  // The order-2 scheme's asymptotic rate is limited by the pressure-Neumann
  // boundary layer of the (non-rotational) incremental projection, but it
  // must (a) keep converging under dt-refinement and (b) sit an order of
  // magnitude below the order-1 error at equal dt.
  const double e2a = taylor_green_error(2, 4e-3, 50);
  const double e2b = taylor_green_error(2, 2e-3, 100);
  EXPECT_GT(e2a / e2b, 1.5);
  const double e1b = taylor_green_error(1, 2e-3, 100);
  EXPECT_LT(e2b, 0.2 * e1b);
  const double e1a = taylor_green_error(1, 4e-3, 50);
  EXPECT_GT(e1a / e1b, 1.5);
  EXPECT_LT(e1a / e1b, 3.0);
}

// ---------------- both dimensions ----------------

// A small box and two velocity-Dirichlet boundaries that share nodes: `lo`
// and `hi`, where `hi` has the largest id of every Dirichlet boundary (2D:
// wall and inlet meet at the inlet corners; 3D: faces X0 and Z1 share an
// edge). `outflow` is natural.
template <class NS>
struct SharedNodes;

template <>
struct SharedNodes<sem::NavierStokes<sem::Discretization>> {
  sem::Discretization d{mesh::QuadMesh::channel(1.0, 1.0, 2, 2), 3};
  static constexpr int lo = mesh::kWall, hi = mesh::kInlet, outflow = mesh::kOutlet;
  static auto constant(double c) {
    return [c](double, double, double) { return c; };
  }
};

template <>
struct SharedNodes<sem::NavierStokes<sem::Discretization3D>> {
  sem::Discretization3D d{1.0, 1.0, 1.0, 2, 2, 2, 3};
  static constexpr auto lo = sem::HexFace::X0, hi = sem::HexFace::Z1;
  static constexpr auto outflow = sem::HexFace::X1;
  static auto constant(double c) {
    return [c](double, double, double, double) { return c; };
  }
};

template <class NS>
class NavierStokesDims : public ::testing::Test {};
using Dims = ::testing::Types<sem::NavierStokes<sem::Discretization>,
                              sem::NavierStokes<sem::Discretization3D>>;
TYPED_TEST_SUITE(NavierStokesDims, Dims);

TYPED_TEST(NavierStokesDims, LargerBoundaryIdWinsSharedNodes) {
  using NS = TypeParam;
  using F = SharedNodes<NS>;
  F f;
  auto u_equals = [](double c) {
    typename NS::template Components<typename NS::BcFn> fn;
    fn.fill(F::constant(0.0));
    fn[0] = F::constant(c);
    return fn;
  };
  NS ns(f.d, {});
  ns.set_velocity_bc(F::lo, u_equals(1.0));
  ns.set_velocity_bc(F::hi, u_equals(2.0));
  ns.set_natural_bc(F::outflow);
  ns.step();
  const auto& lo = f.d.boundary_nodes(F::lo);
  std::size_t shared = 0;
  for (std::size_t g : f.d.boundary_nodes(F::hi)) {
    shared += std::binary_search(lo.begin(), lo.end(), g);
    EXPECT_EQ(ns.u()[g], 2.0) << "node " << g;
  }
  EXPECT_GT(shared, 0u);
}

TEST(Ns2d, SecondOrderStableOnChannel) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Discretization>::Params prm;
  prm.nu = 0.05;
  prm.dt = 2e-3;
  prm.time_order = 2;
  sem::NavierStokes<sem::Discretization> ns(d, prm);
  ns.set_velocity_bc(mesh::kInlet, [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 300; ++s) ns.step();
  EXPECT_NEAR(sem::evaluate(d, {1.0, 0.5}, ns.u()), 1.0, 0.05);
  EXPECT_LT(ns.max_speed(), 2.0);
}

}  // namespace

namespace {

TEST(Ops, WallShearStressPoiseuille) {
  // u = 4 Umax y (H - y) / H^2: tau at the bottom wall = nu du/dy|_{y=0}
  // = 4 nu Umax / H, at the top wall the same magnitude (inward normal).
  const double H = 1.0, Umax = 1.0, nu = 0.05;
  auto m = mesh::QuadMesh::channel(2.0, H, 4, 2);
  sem::Discretization d(m, 5);
  sem::Operators ops(d);
  la::Vector u(d.num_nodes()), v(d.num_nodes(), 0.0);
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    const double y = d.node_y(g);
    u[g] = 4.0 * Umax * y * (H - y) / (H * H);
  }
  auto tau = ops.wall_shear_stress(u, v, nu, mesh::kWall);
  const auto& nodes = d.boundary_nodes(mesh::kWall);
  ASSERT_EQ(tau.size(), nodes.size());
  const double expected = 4.0 * nu * Umax / H;
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const double y = d.node_y(nodes[k]);
    if (y != 0.0 && y != H) continue;  // only the horizontal walls
    const double x = d.node_x(nodes[k]);
    if (x == 0.0 || x == 2.0) continue;  // corners shared with inlet/outlet
    EXPECT_NEAR(tau[k], expected, 1e-8) << "y=" << y;
  }
}

TEST(Ops, WallShearStressZeroForUniformFlow) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 4);
  sem::Operators ops(d);
  la::Vector u(d.num_nodes(), 1.0), v(d.num_nodes(), 0.0);
  auto tau = ops.wall_shear_stress(u, v, 0.1, mesh::kWall);
  for (double t : tau) EXPECT_NEAR(t, 0.0, 1e-12);
}

}  // namespace

namespace {

// ---- fast path vs the scalar reference kernels ------------------------

la::Vector wavy2d(const sem::Discretization& d, double kx, double ky) {
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::sin(kx * d.node_x(g) + 0.2) * std::cos(ky * d.node_y(g) + 0.1);
  return f;
}

class OpsEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OpsEquivalence, StiffnessAndHelmholtzMatchReference) {
  const int P = GetParam();
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 3, 2);
  sem::Discretization d(m, P);
  sem::Operators ops(d);
  const auto u = wavy2d(d, 2.0, 3.0);
  la::Vector yf, yr;
  ops.apply_stiffness(u, yf);
  sem::reference::apply_stiffness(d, u, yr);
  double scale = 0.0;
  for (std::size_t g = 0; g < yr.size(); ++g) scale = std::max(scale, std::fabs(yr[g]));
  for (std::size_t g = 0; g < yr.size(); ++g)
    EXPECT_NEAR(yf[g], yr[g], 1e-12 * (1.0 + scale)) << "P=" << P;

  ops.apply_helmholtz(3.1, 0.45, u, yf);
  sem::reference::apply_helmholtz(d, 3.1, 0.45, u, yr);
  scale = 0.0;
  for (std::size_t g = 0; g < yr.size(); ++g) scale = std::max(scale, std::fabs(yr[g]));
  for (std::size_t g = 0; g < yr.size(); ++g)
    EXPECT_NEAR(yf[g], yr[g], 1e-12 * (1.0 + scale)) << "P=" << P;
}

TEST_P(OpsEquivalence, MaskedMeshMatchesReference) {
  // a masked (non-rectangular) mesh exercises the irregular gather/scatter
  // table; the Dirichlet-masked operator mirrors the solver's CG lambda
  const int P = GetParam();
  auto m = mesh::QuadMesh::channel_with_cavity(10.0, 1.0, 4.0, 6.0, 1.0, 10, 2);
  sem::Discretization d(m, P);
  sem::Operators ops(d);
  std::vector<char> mask(d.num_nodes(), 0);
  for (std::size_t g : d.boundary_nodes(mesh::kWall)) mask[g] = 1;
  const auto u = wavy2d(d, 1.3, 2.1);
  auto masked_apply = [&](const la::Vector& in, la::Vector& out, bool ref) {
    la::Vector t = in;
    for (std::size_t g = 0; g < t.size(); ++g)
      if (mask[g]) t[g] = 0.0;
    if (ref)
      sem::reference::apply_helmholtz(d, 1.5, 0.7, t, out);
    else
      ops.apply_helmholtz(1.5, 0.7, t, out);
    for (std::size_t g = 0; g < t.size(); ++g)
      if (mask[g]) out[g] = in[g];
  };
  la::Vector yf, yr;
  masked_apply(u, yf, false);
  masked_apply(u, yr, true);
  double scale = 0.0;
  for (std::size_t g = 0; g < yr.size(); ++g) scale = std::max(scale, std::fabs(yr[g]));
  for (std::size_t g = 0; g < yr.size(); ++g)
    EXPECT_NEAR(yf[g], yr[g], 1e-12 * (1.0 + scale)) << "P=" << P;
}

TEST_P(OpsEquivalence, GradientMatchesReference) {
  const int P = GetParam();
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, P);
  sem::Operators ops(d);
  const auto u = wavy2d(d, 1.9, 1.2);
  decltype(ops)::Fields grad;
  la::Vector rx, ry;
  ops.gradient(u, grad);
  sem::reference::gradient(d, u, rx, ry);
  for (std::size_t g = 0; g < rx.size(); ++g) {
    EXPECT_NEAR(grad[0][g], rx[g], 1e-10 * (1.0 + std::fabs(rx[g]))) << "P=" << P;
    EXPECT_NEAR(grad[1][g], ry[g], 1e-10 * (1.0 + std::fabs(ry[g])));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, OpsEquivalence, ::testing::Values(3, 4, 5, 7, 9, 11));

}  // namespace
