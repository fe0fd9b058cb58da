// Tests for the 3D spectral-element core: discretization continuity,
// manufactured Helmholtz solutions, spectral convergence in the order, the
// fast-diagonalisation Helmholtz solve against Jacobi CG, and the fast
// operator paths against the scalar reference kernels. The
// operator identities both dimensions share are the typed OperatorsDims
// suite in sem_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "reference/sem_reference.hpp"
#include "sem/helmholtz.hpp"
#include "sem/hex3d.hpp"
#include "sem/operators.hpp"

namespace {

TEST(Disc3d, NodeCountAndSharing) {
  sem::Discretization3D d(2.0, 1.0, 1.0, 2, 1, 1, 3);
  // lattice (2*3+1)(3+1)(3+1)
  EXPECT_EQ(d.num_nodes(), 7u * 4u * 4u);
  // shared face between elements 0 and 1
  for (int b = 0; b <= 3; ++b)
    for (int c = 0; c <= 3; ++c)
      EXPECT_EQ(d.global_node(0, 3, b, c), d.global_node(1, 0, b, c));
}

TEST(Disc3d, NodeCoordinatesConsistent) {
  sem::Discretization3D d(2.0, 3.0, 4.0, 2, 3, 2, 4);
  // corner nodes
  const std::size_t g0 = d.global_node(0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(d.node_x(g0), 0.0);
  EXPECT_DOUBLE_EQ(d.node_y(g0), 0.0);
  EXPECT_DOUBLE_EQ(d.node_z(g0), 0.0);
  const std::size_t e_last = d.num_elements() - 1;
  const std::size_t g1 = d.global_node(e_last, 4, 4, 4);
  EXPECT_NEAR(d.node_x(g1), 2.0, 1e-13);
  EXPECT_NEAR(d.node_y(g1), 3.0, 1e-13);
  EXPECT_NEAR(d.node_z(g1), 4.0, 1e-13);
}

TEST(Disc3d, FaceNodeCounts) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 2);
  // each face is a (2*2+1)^2 lattice
  for (int f = 0; f < 6; ++f)
    EXPECT_EQ(d.boundary_nodes(static_cast<sem::HexFace>(f)).size(), 25u);
}

TEST(Disc3d, EvaluateReproducesSmoothField) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 5);
  la::Vector f(d.num_nodes());
  auto fn = [](double x, double y, double z) {
    return std::sin(2 * x) * std::cos(y) * std::exp(0.5 * z);
  };
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = fn(d.node_x(g), d.node_y(g), d.node_z(g));
  for (double x : {0.13, 0.5, 0.94})
    for (double y : {0.21, 0.77})
      for (double z : {0.05, 0.63})
        EXPECT_NEAR(sem::evaluate(d, {x, y, z}, f), fn(x, y, z), 2e-5);
}

TEST(Helmholtz3d, ManufacturedDirichletSolution) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 6);
  sem::Operators ops(d);
  const double lambda = 1.5, nu = 0.7;
  sem::HelmholtzSolver hs(ops, lambda, nu,
                          {sem::HexFace::X0, sem::HexFace::X1, sem::HexFace::Y0,
                           sem::HexFace::Y1, sem::HexFace::Z0, sem::HexFace::Z1});
  hs.options().rtol = 1e-12;
  auto exact = [](double x, double y, double z) {
    return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
  };
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = (lambda + 3.0 * nu * M_PI * M_PI) *
           exact(d.node_x(g), d.node_y(g), d.node_z(g));
  la::Vector u;
  auto res = hs.solve(f, [&](double x, double y, double z) { return exact(x, y, z); }, u);
  EXPECT_TRUE(res.converged);
  double err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    err = std::max(err, std::fabs(u[g] - exact(d.node_x(g), d.node_y(g), d.node_z(g))));
  EXPECT_LT(err, 5e-5);
}

TEST(Helmholtz3d, PureNeumannPoisson) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 6);
  sem::Operators ops(d);
  sem::HelmholtzSolver hs(ops, 0.0, 1.0, {});
  hs.options().rtol = 1e-12;
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::cos(M_PI * d.node_x(g));
  la::Vector u;
  auto res = hs.solve(f, [](double, double, double) { return 0.0; }, u);
  EXPECT_TRUE(res.converged);
  double err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g) {
    const double exact = std::cos(M_PI * d.node_x(g)) / (M_PI * M_PI);
    err = std::max(err, std::fabs(u[g] - exact));
  }
  EXPECT_LT(err, 5e-5);
  EXPECT_NEAR(ops.integral(u), 0.0, 1e-9);
}

class Sem3dOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(Sem3dOrderSweep, SpectralConvergence) {
  auto err_at = [](int P) {
    sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, P);
    sem::Operators ops(d);
    sem::HelmholtzSolver hs(ops, 1.0, 1.0,
                            {sem::HexFace::X0, sem::HexFace::X1, sem::HexFace::Y0,
                             sem::HexFace::Y1, sem::HexFace::Z0, sem::HexFace::Z1});
    hs.options().rtol = 1e-13;
    auto exact = [](double x, double y, double z) {
      return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
    };
    la::Vector f(d.num_nodes());
    for (std::size_t g = 0; g < d.num_nodes(); ++g)
      f[g] = (1.0 + 3.0 * M_PI * M_PI) * exact(d.node_x(g), d.node_y(g), d.node_z(g));
    la::Vector u;
    hs.solve(f, [&](double x, double y, double z) { return exact(x, y, z); }, u);
    double e = 0.0;
    for (std::size_t g = 0; g < d.num_nodes(); ++g)
      e = std::max(e, std::fabs(u[g] - exact(d.node_x(g), d.node_y(g), d.node_z(g))));
    return e;
  };
  const int P = GetParam();
  const double eP = err_at(P), eP2 = err_at(P + 2);
  if (eP > 1e-9) {
    EXPECT_LT(eP2, 0.25 * eP) << "P=" << P;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, Sem3dOrderSweep, ::testing::Values(2, 3, 4));

// ---- the fast-diagonalisation solve against Jacobi CG ------------------

struct FastDiagCase {
  const char* name;
  std::array<double, 3> L;
  std::array<std::size_t, 3> n;
  int P;
  std::vector<sem::HexFace> dirichlet;
  double lambda, nu;
};

// gtest prints a parameter in the test listing; the name keeps it readable
// and free of pointer bytes
void PrintTo(const FastDiagCase& c, std::ostream* os) { *os << c.name; }

const std::vector<FastDiagCase>& fast_diag_cases() {
  using F = sem::HexFace;
  static const std::vector<FastDiagCase> cases = {
      {"AllFacesDirichlet", {1.0, 1.0, 1.0}, {2, 2, 2}, 6,
       {F::X0, F::X1, F::Y0, F::Y1, F::Z0, F::Z1}, 1.5, 0.7},
      // cdc3d's velocity solve (X1 natural) and pressure solve (X1 only)
      {"Cdc3dVelocity", {4.0, 1.0, 1.0}, {4, 1, 2}, 4, {F::X0, F::Y0, F::Y1, F::Z0, F::Z1},
       750.0, 0.05},
      {"Cdc3dPressure", {4.0, 1.0, 1.0}, {4, 1, 2}, 4, {F::X1}, 0.0, 1.0},
      {"PureNeumannPoisson", {1.0, 1.0, 1.0}, {2, 2, 2}, 5, {}, 0.0, 1.0},
      {"NeumannHelmholtz", {1.0, 1.0, 1.0}, {2, 2, 2}, 5, {}, 2.0, 1.0},
      {"AnisotropicBox", {2.0, 0.7, 1.3}, {3, 2, 4}, 5, {F::X0, F::Y1, F::Z0}, 3.0, 0.2},
      {"OrderOne", {1.0, 2.0, 1.0}, {5, 3, 4}, 1, {F::Y0, F::Y1, F::Z1}, 2.0, 1.0},
      {"OrderEight", {1.5, 1.0, 1.0}, {2, 1, 2}, 8, {F::X0, F::X1, F::Z0}, 10.0, 0.1},
  };
  return cases;
}

class Helmholtz3dFastDiag : public ::testing::TestWithParam<FastDiagCase> {};

TEST_P(Helmholtz3dFastDiag, AgreesWithJacobiCg) {
  const FastDiagCase& c = GetParam();
  sem::Discretization3D d(c.L[0], c.L[1], c.L[2], c.n[0], c.n[1], c.n[2], c.P);
  sem::Operators ops(d);
  sem::HelmholtzSolver hs(ops, c.lambda, c.nu, c.dirichlet);
  // a short series of smooth fields, so the projector's guesses take part
  for (int s = 0; s < 3; ++s) {
    auto g = [s](double x, double y, double z) { return std::cos(x + 0.5 * y - z + s); };
    la::Vector f(d.num_nodes());
    for (std::size_t k = 0; k < d.num_nodes(); ++k)
      f[k] = std::sin(2.0 * d.node_x(k) + 0.3 * s) * std::cos(1.7 * d.node_y(k)) +
             d.node_z(k) * d.node_z(k);
    la::Vector u;
    const auto res = hs.solve(f, g, u);
    EXPECT_TRUE(res.converged);
    EXPECT_LE(res.iterations, 2u) << "solve " << s;
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

INSTANTIATE_TEST_SUITE_P(Cases, Helmholtz3dFastDiag, ::testing::ValuesIn(fast_diag_cases()),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace

#include "sem/navier_stokes.hpp"

namespace {

TEST(Ns3d, PoiseuilleBetweenPlates) {
  // flow in x, plates at z = 0, 1; exact parabola imposed at inlet and side
  // faces; steady state must carry it through the domain
  const double H = 1.0, Umax = 1.0, nu = 0.05;
  sem::Discretization3D d(2.0, 1.0, H, 3, 2, 2, 4);
  sem::NavierStokes<sem::Discretization3D>::Params prm;
  prm.nu = nu;
  prm.dt = 2e-3;
  prm.pressure_dirichlet_faces = {sem::HexFace::X1};
  sem::NavierStokes<sem::Discretization3D> ns(d, prm);
  auto prof = [&](double, double, double z, double) { return 4.0 * Umax * z * (H - z) / (H * H); };
  auto zero = [](double, double, double, double) { return 0.0; };
  ns.set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y1, prof, zero, zero);
  ns.set_natural_bc(sem::HexFace::X1);
  // Z faces default to no-slip walls
  for (int s = 0; s < 500; ++s) ns.step();
  EXPECT_NEAR(sem::evaluate(d, {1.0, 0.5, 0.5}, ns.u()), Umax, 0.05);
  EXPECT_NEAR(sem::evaluate(d, {1.0, 0.5, 0.5}, ns.v()), 0.0, 0.03);
  EXPECT_NEAR(sem::evaluate(d, {1.0, 0.5, 0.5}, ns.w()), 0.0, 0.03);
  EXPECT_NEAR(sem::evaluate(d, {1.5, 0.5, 0.25}, ns.u()), prof(0, 0, 0.25, 0), 0.06);
}

TEST(Ns3d, TaylorGreenColumnDecay) {
  // 2D Taylor-Green vortex extended uniformly in z (w = 0): an exact 3D NS
  // solution; all faces Dirichlet from the exact fields.
  const double nu = 0.02;
  sem::Discretization3D d(1.0, 1.0, 0.5, 3, 3, 1, 5);
  sem::NavierStokes<sem::Discretization3D>::Params prm;
  prm.nu = nu;
  prm.dt = 2e-3;
  prm.time_order = 2;
  prm.pressure_dirichlet_faces = {};
  sem::NavierStokes<sem::Discretization3D> ns(d, prm);
  auto F = [nu](double t) { return std::exp(-2.0 * M_PI * M_PI * nu * t); };
  auto ue = [&](double x, double y, double, double t) {
    return std::sin(M_PI * x) * std::cos(M_PI * y) * F(t);
  };
  auto ve = [&](double x, double y, double, double t) {
    return -std::cos(M_PI * x) * std::sin(M_PI * y) * F(t);
  };
  auto we = [](double, double, double, double) { return 0.0; };
  for (int f = 0; f < 6; ++f)
    ns.set_velocity_bc(static_cast<sem::HexFace>(f), ue, ve, we);
  ns.set_initial([&](double x, double y, double z, double t) { return ue(x, y, z, t); },
                 [&](double x, double y, double z, double t) { return ve(x, y, z, t); },
                 [&](double x, double y, double z, double t) { return we(x, y, z, t); });
  for (int s = 0; s < 100; ++s) ns.step();
  const double T = ns.time();
  double err = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    err = std::max(err,
                   std::fabs(ns.u()[g] - ue(d.node_x(g), d.node_y(g), d.node_z(g), T)));
  EXPECT_LT(err, 0.02);
  // w stays (near) zero: the column structure is preserved
  double wmax = 0.0;
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    wmax = std::max(wmax, std::fabs(ns.w()[g]));
  EXPECT_LT(wmax, 0.02);
}

// ---- fast path vs the scalar reference kernels ------------------------

la::Vector wavy_field(const sem::Discretization3D& d, double kx, double ky, double kz) {
  la::Vector f(d.num_nodes());
  for (std::size_t g = 0; g < d.num_nodes(); ++g)
    f[g] = std::sin(kx * d.node_x(g) + 0.3) * std::cos(ky * d.node_y(g)) *
           std::sin(kz * d.node_z(g) + 0.7);
  return f;
}

class Ops3dEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(Ops3dEquivalence, StiffnessMatchesReference) {
  const int P = GetParam();
  for (std::size_t nx : {1u, 2u, 3u}) {
    sem::Discretization3D d(1.3, 1.0, 0.8, nx, 2, 1, P);
    sem::Operators ops(d);
    const auto u = wavy_field(d, 2.0, 3.0, 1.5);
    la::Vector yf, yr;
    ops.apply_stiffness(u, yf);
    sem::reference::apply_stiffness(d, u, yr);
    double scale = 0.0;
    for (std::size_t g = 0; g < yr.size(); ++g) scale = std::max(scale, std::fabs(yr[g]));
    for (std::size_t g = 0; g < yr.size(); ++g)
      EXPECT_NEAR(yf[g], yr[g], 1e-12 * (1.0 + scale)) << "P=" << P << " nx=" << nx;
  }
}

TEST_P(Ops3dEquivalence, HelmholtzMatchesReference) {
  const int P = GetParam();
  sem::Discretization3D d(1.0, 1.2, 0.9, 2, 2, 2, P);
  sem::Operators ops(d);
  const auto u = wavy_field(d, 1.0, 2.0, 3.0);
  la::Vector yf, yr;
  ops.apply_helmholtz(2.75, 0.31, u, yf);
  sem::reference::apply_helmholtz(d, 2.75, 0.31, u, yr);
  double scale = 0.0;
  for (std::size_t g = 0; g < yr.size(); ++g) scale = std::max(scale, std::fabs(yr[g]));
  for (std::size_t g = 0; g < yr.size(); ++g)
    EXPECT_NEAR(yf[g], yr[g], 1e-12 * (1.0 + scale)) << "P=" << P;
}

TEST_P(Ops3dEquivalence, MaskedHelmholtzMatchesReference) {
  // the Dirichlet-masked operator exactly as the solver's CG lambda builds
  // it: zero masked entries, apply, zero masked rows, restore identity
  const int P = GetParam();
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 1, 2, P);
  sem::Operators ops(d);
  std::vector<char> mask(d.num_nodes(), 0);
  for (std::size_t g : d.boundary_nodes(sem::HexFace::X0)) mask[g] = 1;
  for (std::size_t g : d.boundary_nodes(sem::HexFace::Z1)) mask[g] = 1;
  auto u = wavy_field(d, 2.2, 1.1, 0.9);
  auto masked_apply = [&](const la::Vector& in, la::Vector& out, bool ref) {
    la::Vector t = in;
    for (std::size_t g = 0; g < t.size(); ++g)
      if (mask[g]) t[g] = 0.0;
    if (ref)
      sem::reference::apply_helmholtz(d, 1.0, 0.5, t, out);
    else
      ops.apply_helmholtz(1.0, 0.5, t, out);
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

TEST_P(Ops3dEquivalence, GradientMatchesReference) {
  const int P = GetParam();
  sem::Discretization3D d(2.0, 1.0, 1.5, 2, 2, 1, P);
  sem::Operators ops(d);
  const auto u = wavy_field(d, 1.7, 2.3, 1.1);
  decltype(ops)::Fields grad;
  la::Vector rx, ry, rz;
  ops.gradient(u, grad);
  sem::reference::gradient(d, u, rx, ry, rz);
  for (std::size_t g = 0; g < rx.size(); ++g) {
    EXPECT_NEAR(grad[0][g], rx[g], 1e-10 * (1.0 + std::fabs(rx[g]))) << "P=" << P;
    EXPECT_NEAR(grad[1][g], ry[g], 1e-10 * (1.0 + std::fabs(ry[g])));
    EXPECT_NEAR(grad[2][g], rz[g], 1e-10 * (1.0 + std::fabs(rz[g])));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, Ops3dEquivalence, ::testing::Values(3, 4, 5, 7, 9, 11));

TEST(Ops3dEquivalence2, PureNeumannSolveAgreesWithReferenceOperator) {
  // solve the same pure-Neumann Poisson problem through the fast operator
  // and through the reference operator; the discrete solutions must agree
  // far beyond the CG tolerance
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 2, 2, 5);
  sem::Operators ops(d);
  const std::size_t n = d.num_nodes();
  // zero-mean forcing
  la::Vector f(n);
  for (std::size_t g = 0; g < n; ++g)
    f[g] = std::cos(M_PI * d.node_x(g)) * std::cos(2.0 * M_PI * d.node_y(g));
  auto solve_with = [&](bool ref) {
    la::Vector b(n, 0.0);
    for (std::size_t g = 0; g < n; ++g) b[g] = ops.mass_diag()[g] * f[g];
    la::LinearOperator A = [&, ref](const double* x, double* y) {
      la::Vector xi(n), yo(n);
      for (std::size_t g = 0; g < n; ++g) xi[g] = x[g];
      if (ref)
        sem::reference::apply_helmholtz(d, 0.2, 1.0, xi, yo);
      else
        ops.apply_helmholtz(0.2, 1.0, xi, yo);
      for (std::size_t g = 0; g < n; ++g) y[g] = yo[g];
    };
    la::Vector x(n, 0.0);
    la::CgOptions opt;
    opt.rtol = 1e-12;
    auto res = la::cg_solve(A, b, x, la::jacobi_preconditioner(ops.helmholtz_diag(0.2, 1.0)),
                            opt);
    EXPECT_TRUE(res.converged);
    return x;
  };
  const auto xf = solve_with(false);
  const auto xr = solve_with(true);
  for (std::size_t g = 0; g < n; ++g) EXPECT_NEAR(xf[g], xr[g], 1e-8);
}

}  // namespace
