// Tests for the spectral-element core: GLL machinery, discretization,
// operators, Helmholtz/Poisson solves, and Navier-Stokes validation against
// analytic flows (Poiseuille, Taylor-Green, Womersley).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "reference/sem_reference.hpp"
#include "sem/discretization.hpp"
#include "sem/gll.hpp"
#include "sem/helmholtz.hpp"
#include "sem/navier_stokes.hpp"
#include "sem/operators.hpp"

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
  for (double x : {-0.93, -0.2, 0.0, 0.41, 0.99}) {
    auto basis = sem::lagrange_basis_at(r, x);
    double s = 0.0;
    for (std::size_t k = 0; k < basis.size(); ++k) s += basis[k] * f[k];
    EXPECT_NEAR(s, poly(x), 1e-12);
  }
}

TEST(Gll, LagrangeBasisAtNodeIsDelta) {
  auto r = sem::gll_rule(4);
  auto b = sem::lagrange_basis_at(r, r.nodes[2]);
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
      EXPECT_NEAR(d.evaluate(f, x, y), fn(x, y), 2e-6);
}

TEST(Disc, EvaluateOutsideThrows) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 3);
  la::Vector f(d.num_nodes(), 1.0);
  EXPECT_THROW(d.evaluate(f, -0.5, 0.5), std::out_of_range);
  EXPECT_THROW(d.evaluate(f, 2.5, 0.5), std::out_of_range);
}

TEST(Disc, LocateRespectsMask) {
  auto m = mesh::QuadMesh::channel_with_cavity(10.0, 1.0, 4.0, 6.0, 1.0, 10, 2);
  sem::Discretization d(m, 3);
  EXPECT_GE(d.locate(5.0, 1.5), 0);   // inside cavity
  EXPECT_EQ(d.locate(1.0, 1.5), -1);  // above channel, outside cavity
}

// ---------------- Operators ----------------

TEST(Ops, MassDiagSumsToArea) {
  auto m = mesh::QuadMesh::channel(3.0, 2.0, 6, 4);
  sem::Discretization d(m, 5);
  sem::Operators ops(d);
  double area = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) area += ops.mass_diag()[g];
  EXPECT_NEAR(area, 6.0, 1e-12);
}

TEST(Ops, StiffnessAnnihilatesConstants) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 3, 2);
  sem::Discretization d(m, 4);
  sem::Operators ops(d);
  la::Vector ones(d.num_nodes(), 1.0), y;
  ops.apply_stiffness(ones, y);
  for (std::size_t g = 0; g < y.size(); ++g) EXPECT_NEAR(y[g], 0.0, 1e-11);
}

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

TEST(Ops, GradientOfLinearFieldExact) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 4);
  sem::Operators ops(d);
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = 3.0 * d.node_x(g) - 2.0 * d.node_y(g) + 1.0;
  la::Vector fx, fy;
  ops.gradient(f, fx, fy);
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    EXPECT_NEAR(fx[g], 3.0, 1e-10);
    EXPECT_NEAR(fy[g], -2.0, 1e-10);
  }
}

TEST(Ops, GradientSpectralAccuracy) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 8);
  sem::Operators ops(d);
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::sin(d.node_x(g)) * std::exp(d.node_y(g));
  la::Vector fx, fy;
  ops.gradient(f, fx, fy);
  double max_err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    max_err = std::max(max_err,
                       std::fabs(fx[g] - std::cos(d.node_x(g)) * std::exp(d.node_y(g))));
  }
  EXPECT_LT(max_err, 1e-7);
}

TEST(Ops, DivergenceOfRotationalFieldZero) {
  auto m = mesh::QuadMesh::channel(2.0, 2.0, 4, 4);
  sem::Discretization d(m, 6);
  sem::Operators ops(d);
  la::Vector u(d.num_nodes()), v(d.num_nodes()), div;
  // u = y, v = -x is divergence-free
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    u[g] = d.node_y(g);
    v[g] = -d.node_x(g);
  }
  ops.divergence(u, v, div);
  for (std::size_t g = 0; g < d.num_nodes(); ++g) EXPECT_NEAR(div[g], 0.0, 1e-10);
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

}  // namespace

// ---------------- Helmholtz, both instantiations ----------------

// A Dirichlet-walled unit square (2D) or unit cube (3D) at order 6: one
// problem per HelmholtzSolver instantiation, for the typed HelmholtzDims
// suite. They sit outside the anonymous namespace so the discovered test
// names read HelmholtzDims.<Test><Quad2d>.
struct Quad2d {
  sem::Discretization d{mesh::QuadMesh::lid_cavity(3), 6};
  sem::Operators ops{d};
  std::vector<int> walls{mesh::kWall, mesh::kInlet};
};

struct Hex3d {
  sem::Discretization3D d{1.0, 1.0, 1.0, 2, 2, 2, 6};
  sem::Operators3D ops{d};
  std::vector<sem::HexFace> walls{sem::HexFace::X0, sem::HexFace::X1, sem::HexFace::Y0,
                                  sem::HexFace::Y1, sem::HexFace::Z0, sem::HexFace::Z1};
};

namespace {

template <class Case>
class HelmholtzDims : public ::testing::Test {};
using HelmholtzCases = ::testing::Types<Quad2d, Hex3d>;
TYPED_TEST_SUITE(HelmholtzDims, HelmholtzCases);

TYPED_TEST(HelmholtzDims, ProjectorAcceleratesTimeSeries) {
  TypeParam c;
  sem::HelmholtzSolver hs(c.ops, 10.0, 1.0, c.walls);
  const la::Vector bc(hs.dirichlet_nodes().size(), 0.0);
  la::Vector u;
  std::size_t first = 0, late = 0;
  for (int step = 0; step < 8; ++step) {
    la::Vector f(c.d.num_nodes());
    for (std::size_t g = 0; g < c.d.num_nodes(); ++g)
      f[g] = std::sin(M_PI * c.d.node_x(g) + 0.1 * step) * std::sin(M_PI * c.d.node_y(g));
    auto res = hs.solve_with_values(f, bc, u);
    if (step == 0) first = res.iterations;
    if (step == 7) late = res.iterations;
  }
  EXPECT_LT(late, first / 2);
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

// ---------------- Navier-Stokes ----------------

TEST(Ns2d, PoiseuilleSteadyState) {
  // Channel flow with parabolic inlet; the steady solution is the same
  // parabola everywhere and dp/dx = -2 nu Umax / h^2 * ... (h = half height).
  const double H = 1.0, L = 2.0, numean = 0.05, Umax = 1.0;
  auto m = mesh::QuadMesh::channel(L, H, 6, 3);
  sem::Discretization d(m, 5);
  sem::NavierStokes<sem::Operators>::Params prm;
  prm.nu = numean;
  prm.dt = 2e-3;
  sem::NavierStokes<sem::Operators> ns(d, prm);
  auto poiseuille = [&](double, double y, double) { return 4.0 * Umax * y * (H - y) / (H * H); };
  ns.set_velocity_bc(mesh::kInlet, poiseuille,
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  // start from rest, march to steady state
  for (int s = 0; s < 600; ++s) ns.step();
  // centerline velocity approaches Umax through the whole channel
  for (double x : {0.3, 1.0, 1.7}) {
    EXPECT_NEAR(d.evaluate(ns.u(), x, 0.5), Umax, 0.03) << "x=" << x;
    EXPECT_NEAR(d.evaluate(ns.v(), x, 0.5), 0.0, 0.02);
  }
  // no-slip at the wall
  EXPECT_NEAR(d.evaluate(ns.u(), 1.0, 0.0), 0.0, 1e-10);
}

TEST(Ns2d, TaylorGreenDecay) {
  // Exact NS solution on [0,1]^2: u = sin(pi x) cos(pi y) F(t),
  // v = -cos(pi x) sin(pi y) F(t), F = exp(-2 pi^2 nu t).
  const double nu = 0.02;
  auto m = mesh::QuadMesh::lid_cavity(4);
  sem::Discretization d(m, 6);
  sem::NavierStokes<sem::Operators>::Params prm;
  prm.nu = nu;
  prm.dt = 1e-3;
  prm.pressure_dirichlet_faces = {};  // enclosed flow: pure-Neumann pressure
  sem::NavierStokes<sem::Operators> ns(d, prm);
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
  sem::NavierStokes<sem::Operators>::Params prm;
  prm.nu = nu;
  prm.dt = 2.5e-3;
  prm.pressure_dirichlet_faces = {mesh::kInlet, mesh::kOutlet};
  sem::NavierStokes<sem::Operators> ns(d, prm);
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
    const double uc = d.evaluate(ns.u(), 0.5, 0.5);
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
  sem::NavierStokes<sem::Operators>::Params prm;
  prm.nu = 0.05;
  prm.dt = 2e-3;
  prm.pressure_dirichlet_faces = {};
  sem::NavierStokes<sem::Operators> ns(d, prm);
  ns.set_velocity_bc(mesh::kInlet, [](double, double, double) { return 1.0; },
                     [](double, double, double) { return 0.0; });
  for (int s = 0; s < 100; ++s) ns.step();
  // interior divergence should be small relative to the lid speed scale
  la::Vector div(d.num_nodes());
  sem::Operators ops(d);
  la::Vector u = ns.u(), v = ns.v();
  ops.divergence(u, v, div);
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
  EXPECT_GT(d.evaluate(ns.u(), 0.5, 0.95), 0.1);
  EXPECT_LT(d.evaluate(ns.u(), 0.5, 0.3), 0.05);
}

TEST(Ns2d, ExplicitBcValuesOverrideFunctions) {
  auto m = mesh::QuadMesh::channel(1.0, 1.0, 2, 2);
  sem::Discretization d(m, 3);
  sem::NavierStokes<sem::Operators>::Params prm;
  prm.dt = 1e-3;
  sem::NavierStokes<sem::Operators> ns(d, prm);
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
  auto m = mesh::QuadMesh::channel(1.0, 1.0, 2, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Operators> ns(d, {});
  ns.set_velocity_bc(mesh::kInlet, [](double, double, double) { return 1.0; },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  EXPECT_GT(ns.step(), 0u);
  EXPECT_DOUBLE_EQ(ns.time(), ns.dt());
}

}  // namespace

namespace {

double taylor_green_error(int time_order, double dt, int steps) {
  const double nu = 0.02;
  auto m = mesh::QuadMesh::lid_cavity(4);
  sem::Discretization d(m, 7);
  sem::NavierStokes<sem::Operators>::Params prm;
  prm.nu = nu;
  prm.dt = dt;
  prm.time_order = time_order;
  prm.pressure_dirichlet_faces = {};
  sem::NavierStokes<sem::Operators> ns(d, prm);
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
struct SharedNodes<sem::NavierStokes<sem::Operators>> {
  sem::Discretization d{mesh::QuadMesh::channel(1.0, 1.0, 2, 2), 3};
  static constexpr int lo = mesh::kWall, hi = mesh::kInlet, outflow = mesh::kOutlet;
  static auto constant(double c) {
    return [c](double, double, double) { return c; };
  }
};

template <>
struct SharedNodes<sem::NavierStokes<sem::Operators3D>> {
  sem::Discretization3D d{1.0, 1.0, 1.0, 2, 2, 2, 3};
  static constexpr auto lo = sem::HexFace::X0, hi = sem::HexFace::Z1;
  static constexpr auto outflow = sem::HexFace::X1;
  static auto constant(double c) {
    return [c](double, double, double, double) { return c; };
  }
};

template <class NS>
class NavierStokesDims : public ::testing::Test {};
using Dims =
    ::testing::Types<sem::NavierStokes<sem::Operators>, sem::NavierStokes<sem::Operators3D>>;
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
  sem::NavierStokes<sem::Operators>::Params prm;
  prm.nu = 0.05;
  prm.dt = 2e-3;
  prm.time_order = 2;
  sem::NavierStokes<sem::Operators> ns(d, prm);
  ns.set_velocity_bc(mesh::kInlet, [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 300; ++s) ns.step();
  EXPECT_NEAR(d.evaluate(ns.u(), 1.0, 0.5), 1.0, 0.05);
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
  la::Vector fx, fy, rx, ry;
  ops.gradient(u, fx, fy);
  sem::reference::gradient(d, u, rx, ry);
  for (std::size_t g = 0; g < rx.size(); ++g) {
    EXPECT_NEAR(fx[g], rx[g], 1e-10 * (1.0 + std::fabs(rx[g]))) << "P=" << P;
    EXPECT_NEAR(fy[g], ry[g], 1e-10 * (1.0 + std::fabs(ry[g])));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, OpsEquivalence, ::testing::Values(3, 4, 5, 7, 9, 11));

}  // namespace
