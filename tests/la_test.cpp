// Unit tests for the la substrate: SIMD kernels, dense algebra,
// CG + solution projection, symmetric eigensolver, statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "la/cg.hpp"
#include "la/dense.hpp"
#include "la/eig.hpp"
#include "la/simd.hpp"
#include "la/stats.hpp"
#include "la/vector.hpp"
#include "sem/gll.hpp"
#include "table1/kernels.hpp"

namespace {

std::mt19937 rng(12345);

la::Vector random_vector(std::size_t n, double lo = -1.0, double hi = 1.0) {
  std::uniform_real_distribution<double> d(lo, hi);
  la::Vector v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

// ---------------- Vector ----------------

TEST(Vector, AlignmentAndValueSemantics) {
  la::Vector v(17, 3.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % la::kAlignment, 0u);
  la::Vector w = v;
  w[0] = -1.0;
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  la::Vector m = std::move(w);
  EXPECT_DOUBLE_EQ(m[0], -1.0);
  EXPECT_TRUE(w.empty());
}

TEST(Vector, ResizeRefills) {
  la::Vector v(4, 1.0);
  v.resize(8, 2.0);
  EXPECT_EQ(v.size(), 8u);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 2.0);
}

// ---------------- SIMD kernels (Table 1 correctness) ----------------

class SimdKernels : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdKernels, VmulMatchesScalar) {
  const std::size_t n = GetParam();
  auto x = random_vector(n), y = random_vector(n);
  la::Vector z1(n), z2(n);
  la::simd::vmul_scalar(z1.data(), x.data(), y.data(), n);
  la::simd::vmul(z2.data(), x.data(), y.data(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(z1[i], z2[i]);
}

TEST_P(SimdKernels, DotXyzMatchesScalar) {
  const std::size_t n = GetParam();
  auto x = random_vector(n), y = random_vector(n), z = random_vector(n);
  const double a = la::simd::dot_xyz_scalar(x.data(), y.data(), z.data(), n);
  const double b = la::simd::dot_xyz(x.data(), y.data(), z.data(), n);
  EXPECT_NEAR(a, b, 1e-12 * (1.0 + std::fabs(a)));
}

TEST_P(SimdKernels, DotXyyMatchesScalar) {
  const std::size_t n = GetParam();
  auto x = random_vector(n), y = random_vector(n);
  const double a = la::simd::dot_xyy_scalar(x.data(), y.data(), n);
  const double b = la::simd::dot_xyy(x.data(), y.data(), n);
  EXPECT_NEAR(a, b, 1e-12 * (1.0 + std::fabs(a)));
}

TEST_P(SimdKernels, AxpyXpayScale) {
  const std::size_t n = GetParam();
  auto x = random_vector(n);
  auto y0 = random_vector(n);
  la::Vector y = y0;
  la::simd::axpy(2.5, x.data(), y.data(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], y0[i] + 2.5 * x[i], 1e-14);

  y = y0;
  la::simd::xpay(x.data(), -0.5, y.data(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], x[i] - 0.5 * y0[i], 1e-14);

  y = y0;
  la::simd::scale(3.0, y.data(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], 3.0 * y0[i], 1e-14);
}

TEST_P(SimdKernels, ScaleMatchesScalar) {
  const std::size_t n = GetParam();
  auto x = random_vector(n);
  la::Vector y = x;
  la::simd::scale_scalar(1.25, x.data(), n);
  la::simd::scale(1.25, y.data(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(x[i], y[i]);
}

TEST_P(SimdKernels, DpdPairForcesMatchScalar) {
  const std::size_t n = GetParam();
  auto dx = random_vector(n), dy = random_vector(n), dz = random_vector(n);
  auto dvx = random_vector(n), dvy = random_vector(n), dvz = random_vector(n);
  auto zeta = random_vector(n);
  const double a = 25.0, g = 4.5, sig = 3.0;  // Groot-Warren at kBT = 1
  la::Vector r2(n);
  for (std::size_t i = 0; i < n; ++i)
    r2[i] = dx[i] * dx[i] + dy[i] * dy[i] + dz[i] * dz[i];
  la::Vector fx1(n), fy1(n), fz1(n), fx2(n), fy2(n), fz2(n);
  la::simd::dpd_pair_forces_scalar(n, 1.0, 10.0, dx.data(), dy.data(), dz.data(), r2.data(),
                                   dvx.data(), dvy.data(), dvz.data(), zeta.data(), a, g, sig,
                                   fx1.data(), fy1.data(), fz1.data());
  la::simd::dpd_pair_forces(n, 1.0, 10.0, dx.data(), dy.data(), dz.data(), r2.data(),
                            dvx.data(), dvy.data(), dvz.data(), zeta.data(), a, g, sig,
                            fx2.data(), fy2.data(), fz2.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fx1[i], fx2[i], 1e-12 * (1.0 + std::fabs(fx1[i])));
    EXPECT_NEAR(fy1[i], fy2[i], 1e-12 * (1.0 + std::fabs(fy1[i])));
    EXPECT_NEAR(fz1[i], fz2[i], 1e-12 * (1.0 + std::fabs(fz1[i])));
  }
}

TEST(SimdDpdKernel, LaneValueIndependentOfBatchPosition) {
  // re-batching the same pairs (different n, different offsets) must give
  // bitwise-identical forces — the property the bitwise-restart argument in
  // docs/PERF.md relies on (the AVX2 tail is padded through the full-width
  // body, so a pair near the end of a short batch is computed exactly as in
  // the middle of a long one)
  const std::size_t n = 11;
  auto dx = random_vector(n), dy = random_vector(n), dz = random_vector(n);
  auto dvx = random_vector(n), dvy = random_vector(n), dvz = random_vector(n);
  auto zeta = random_vector(n);
  const double a = 25.0, g = 4.5, sig = 3.0;  // Groot-Warren at kBT = 1
  la::Vector r2(n);
  for (std::size_t i = 0; i < n; ++i)
    r2[i] = dx[i] * dx[i] + dy[i] * dy[i] + dz[i] * dz[i];
  la::Vector fx(n), fy(n), fz(n);
  la::simd::dpd_pair_forces(n, 1.0, 10.0, dx.data(), dy.data(), dz.data(), r2.data(),
                            dvx.data(), dvy.data(), dvz.data(), zeta.data(), a, g, sig,
                            fx.data(), fy.data(), fz.data());
  for (std::size_t off = 1; off < n; ++off) {
    const std::size_t m = n - off;
    la::Vector gx(m), gy(m), gz(m);
    la::simd::dpd_pair_forces(m, 1.0, 10.0, dx.data() + off, dy.data() + off,
                              dz.data() + off, r2.data() + off, dvx.data() + off,
                              dvy.data() + off, dvz.data() + off, zeta.data() + off, a, g,
                              sig, gx.data(), gy.data(), gz.data());
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(fx[off + i], gx[i]) << "off=" << off << " i=" << i;
      EXPECT_EQ(fy[off + i], gy[i]);
      EXPECT_EQ(fz[off + i], gz[i]);
    }
  }
}

TEST_P(SimdKernels, AxpyNorm2MatchesSeparatePasses) {
  const std::size_t n = GetParam();
  const double a = 0.37;
  auto x = random_vector(n);
  auto y = random_vector(n);
  la::Vector yref = y, ysc = y;
  la::simd::axpy(a, x.data(), yref.data(), n);
  const double nref = la::simd::dot(yref.data(), yref.data(), n);

  const double nsc = la::simd::axpy_norm2_scalar(a, x.data(), ysc.data(), n);
  const double nd = la::simd::axpy_norm2(a, x.data(), y.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], yref[i], 1e-14 * (1.0 + std::fabs(yref[i])));
    EXPECT_NEAR(ysc[i], yref[i], 1e-14 * (1.0 + std::fabs(yref[i])));
  }
  EXPECT_NEAR(nd, nref, 1e-12 * (1.0 + nref));
  EXPECT_NEAR(nsc, nref, 1e-12 * (1.0 + nref));
}

TEST_P(SimdKernels, AxpyDotMatchesSeparatePasses) {
  const std::size_t n = GetParam();
  const double a = -0.81;
  auto x = random_vector(n);
  auto y = random_vector(n);
  auto u = random_vector(n);
  auto v = random_vector(n);
  la::Vector yref = y, ysc = y;
  la::simd::axpy(a, x.data(), yref.data(), n);
  const double dref = la::simd::dot(u.data(), v.data(), n);

  const double dsc = la::simd::axpy_dot_scalar(a, x.data(), ysc.data(), u.data(), v.data(), n);
  const double dd = la::simd::axpy_dot(a, x.data(), y.data(), u.data(), v.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], yref[i], 1e-14 * (1.0 + std::fabs(yref[i])));
    EXPECT_NEAR(ysc[i], yref[i], 1e-14 * (1.0 + std::fabs(yref[i])));
  }
  EXPECT_NEAR(dd, dref, 1e-12 * (1.0 + std::fabs(dref)));
  EXPECT_NEAR(dsc, dref, 1e-12 * (1.0 + std::fabs(dref)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimdKernels,
                         ::testing::Values(0, 1, 3, 4, 7, 8, 15, 64, 1000, 4097));

// ---------------- batched SEM line kernels ----------------

namespace {

// straight-line reference: y[b*nvec+v] += coef*cs[v]*sum_m M[b*n1+m]*u[m*nvec+v]
void naive_lines_apply(const double* M, std::size_t n1, std::size_t nvec, const double* u,
                       double* y, const double* cs, double coef) {
  for (std::size_t b = 0; b < n1; ++b)
    for (std::size_t v = 0; v < nvec; ++v) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += M[b * n1 + m] * u[m * nvec + v];
      y[b * nvec + v] += coef * (cs ? cs[v] : 1.0) * s;
    }
}

// reference for lines_apply_t: y[l*n1+a] += coef*rs[l]*sum_m u[l*n1+m]*MT[m*n1+a]
void naive_lines_apply_t(const double* MT, std::size_t n1, std::size_t nlines, const double* u,
                         double* y, const double* rs, double coef) {
  for (std::size_t l = 0; l < nlines; ++l)
    for (std::size_t a = 0; a < n1; ++a) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += u[l * n1 + m] * MT[m * n1 + a];
      y[l * n1 + a] += coef * (rs ? rs[l] : 1.0) * s;
    }
}

}  // namespace

TEST(SimdLineKernels, LinesApplyMatchesNaive) {
  for (std::size_t n1 : {2u, 4u, 5u, 8u, 9u, 12u}) {
    for (std::size_t nvec : {1u, 3u, 4u, 5u, 16u, 25u}) {
      auto M = random_vector(n1 * n1);
      auto u = random_vector(n1 * nvec);
      auto cs = random_vector(nvec);
      la::Vector yref(n1 * nvec, 0.5), ysc(n1 * nvec, 0.5), yd(n1 * nvec, 0.5);
      naive_lines_apply(M.data(), n1, nvec, u.data(), yref.data(), cs.data(), 1.7);
      la::simd::lines_apply_scalar(M.data(), n1, nvec, u.data(), ysc.data(), cs.data(), 1.7);
      la::simd::lines_apply(M.data(), n1, nvec, u.data(), yd.data(), cs.data(), 1.7);
      for (std::size_t k = 0; k < n1 * nvec; ++k) {
        EXPECT_NEAR(ysc[k], yref[k], 1e-12 * (1.0 + std::fabs(yref[k])))
            << "n1=" << n1 << " nvec=" << nvec << " k=" << k;
        EXPECT_NEAR(yd[k], yref[k], 1e-12 * (1.0 + std::fabs(yref[k])));
      }
    }
  }
}

TEST(SimdLineKernels, LinesApplyTMatchesNaive) {
  for (std::size_t n1 : {2u, 4u, 5u, 8u, 9u, 12u}) {
    for (std::size_t nlines : {1u, 3u, 4u, 5u, 16u, 25u}) {
      auto MT = random_vector(n1 * n1);
      auto u = random_vector(n1 * nlines);
      auto rs = random_vector(nlines);
      la::Vector yref(n1 * nlines, -0.25), ysc(n1 * nlines, -0.25), yd(n1 * nlines, -0.25);
      naive_lines_apply_t(MT.data(), n1, nlines, u.data(), yref.data(), rs.data(), 0.9);
      la::simd::lines_apply_t_scalar(MT.data(), n1, nlines, u.data(), ysc.data(), rs.data(),
                                     0.9);
      la::simd::lines_apply_t(MT.data(), n1, nlines, u.data(), yd.data(), rs.data(), 0.9);
      for (std::size_t k = 0; k < n1 * nlines; ++k) {
        EXPECT_NEAR(ysc[k], yref[k], 1e-12 * (1.0 + std::fabs(yref[k])))
            << "n1=" << n1 << " nlines=" << nlines << " k=" << k;
        EXPECT_NEAR(yd[k], yref[k], 1e-12 * (1.0 + std::fabs(yref[k])));
      }
    }
  }
}

TEST(SimdLineKernels, GemmMatchesDenseMatmul) {
  // sizes around the 8- and 4-wide column blocks, and past kMaxLineN; a
  // local generator leaves the shared stream of later tests as it was
  std::mt19937 gen(7);
  std::uniform_real_distribution<double> u01(-1.0, 1.0);
  for (std::size_t m : {1u, 3u, 13u}) {
    for (std::size_t k : {1u, 7u, 49u}) {
      for (std::size_t n : {1u, 4u, 5u, 8u, 11u, 49u}) {
        la::DenseMatrix A(m, k), B(k, n);
        std::generate(A.data(), A.data() + m * k, [&] { return u01(gen); });
        std::generate(B.data(), B.data() + k * n, [&] { return u01(gen); });
        const la::DenseMatrix ref = la::DenseMatrix::matmul(A, B);
        la::Vector csc(m * n, 9.0), cd(m * n, 9.0);  // gemm overwrites C
        la::simd::gemm_scalar(A.data(), B.data(), csc.data(), m, k, n);
        la::simd::gemm(A.data(), B.data(), cd.data(), m, k, n);
        for (std::size_t q = 0; q < m * n; ++q) {
          const double r = ref.data()[q];
          EXPECT_NEAR(csc[q], r, 1e-12 * (1.0 + std::fabs(r)))
              << "m=" << m << " k=" << k << " n=" << n << " q=" << q;
          EXPECT_NEAR(cd[q], r, 1e-12 * (1.0 + std::fabs(r)));
        }
      }
    }
  }
}

TEST(SimdLineKernels, NullScaleIsBitwiseIdenticalToOnes) {
  const std::size_t n1 = 7, nvec = 11;
  auto M = random_vector(n1 * n1);
  auto u = random_vector(n1 * nvec);
  la::Vector ones(nvec, 1.0), lones(n1, 1.0);
  la::Vector y1(n1 * nvec, 0.0), y2(n1 * nvec, 0.0);
  la::simd::lines_apply(M.data(), n1, nvec, u.data(), y1.data(), nullptr, 2.5);
  la::simd::lines_apply(M.data(), n1, nvec, u.data(), y2.data(), ones.data(), 2.5);
  for (std::size_t k = 0; k < n1 * nvec; ++k) EXPECT_EQ(y1[k], y2[k]);

  la::Vector t1(n1 * n1, 0.0), t2(n1 * n1, 0.0);
  la::simd::lines_apply_t(M.data(), n1, n1, u.data(), t1.data(), nullptr, 2.5);
  la::simd::lines_apply_t(M.data(), n1, n1, u.data(), t2.data(), lones.data(), 2.5);
  for (std::size_t k = 0; k < n1 * n1; ++k) EXPECT_EQ(t1[k], t2[k]);
}

TEST(SimdLineKernels, ColumnValueIndependentOfBatchPosition) {
  // re-batching a subset of columns into a narrower call must reproduce the
  // same outputs bitwise (the AVX2 tail is padded through the full 4-wide
  // body — the lane rule docs/PERF.md relies on)
  const std::size_t n1 = 6, nvec = 13;
  auto M = random_vector(n1 * n1);
  auto u = random_vector(n1 * nvec);
  auto cs = random_vector(nvec);
  la::Vector y(n1 * nvec, 0.0);
  la::simd::lines_apply(M.data(), n1, nvec, u.data(), y.data(), cs.data(), 1.3);

  for (std::size_t v0 : {0u, 2u, 5u, 9u}) {
    const std::size_t m = nvec - v0;
    la::Vector usub(n1 * m), cssub(m), ysub(n1 * m, 0.0);
    for (std::size_t r = 0; r < n1; ++r)
      for (std::size_t v = 0; v < m; ++v) usub[r * m + v] = u[r * nvec + v0 + v];
    for (std::size_t v = 0; v < m; ++v) cssub[v] = cs[v0 + v];
    la::simd::lines_apply(M.data(), n1, m, usub.data(), ysub.data(), cssub.data(), 1.3);
    for (std::size_t b = 0; b < n1; ++b)
      for (std::size_t v = 0; v < m; ++v)
        EXPECT_EQ(y[b * nvec + v0 + v], ysub[b * m + v]) << "v0=" << v0;
  }
}

TEST(SimdLineKernels, LineValueIndependentOfBatchPosition) {
  const std::size_t n1 = 5, nlines = 14;
  auto MT = random_vector(n1 * n1);
  auto u = random_vector(n1 * nlines);
  auto rs = random_vector(nlines);
  la::Vector y(n1 * nlines, 0.0);
  la::simd::lines_apply_t(MT.data(), n1, nlines, u.data(), y.data(), rs.data(), -0.6);

  for (std::size_t l0 : {1u, 4u, 10u, 13u}) {
    const std::size_t m = nlines - l0;
    la::Vector ysub(n1 * m, 0.0);
    la::simd::lines_apply_t(MT.data(), n1, m, u.data() + l0 * n1, ysub.data(),
                            rs.data() + l0, -0.6);
    for (std::size_t k = 0; k < n1 * m; ++k)
      EXPECT_EQ(y[l0 * n1 + k], ysub[k]) << "l0=" << l0;
  }
}

// ---------------- Dense ----------------

TEST(Dense, MatmulAgainstHandComputed) {
  la::DenseMatrix A(2, 3), B(3, 2);
  int v = 1;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) A(i, j) = v++;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 2; ++j) B(i, j) = v++;
  auto C = la::DenseMatrix::matmul(A, B);
  // A = [1 2 3; 4 5 6], B = [7 8; 9 10; 11 12]
  EXPECT_DOUBLE_EQ(C(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(C(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(C(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(C(1, 1), 154.0);
}

TEST(Dense, TransposeIdentityMatvec) {
  auto I = la::DenseMatrix::identity(5);
  auto x = random_vector(5);
  auto y = I.matvec(x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
  auto T = I.transposed();
  EXPECT_DOUBLE_EQ(T.frobenius(), I.frobenius());
}

TEST(Dense, LuSolveRecoversSolution) {
  const std::size_t n = 12;
  la::DenseMatrix A(n, n);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) A(i, j) = d(rng);
    A(i, i) += 4.0;  // diagonally dominant
  }
  auto xref = random_vector(n);
  auto b = A.matvec(xref);
  la::Vector x;
  ASSERT_TRUE(la::lu_solve(A, b, x));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-10);
}

TEST(Dense, LuSolveDetectsSingular) {
  la::DenseMatrix A(3, 3);  // all zero
  la::Vector b(3, 1.0), x;
  EXPECT_FALSE(la::lu_solve(A, b, x));
}

// ---------------- CG ----------------

// Symmetric tridiagonal operator: diag[i] on the diagonal, `off` on both
// neighbours.
la::LinearOperator tridiagonal(la::Vector diag, double off) {
  return [diag = std::move(diag), off](const double* x, double* y) {
    const std::size_t n = diag.size();
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      if (i > 0) s += off * x[i - 1];
      s += diag[i] * x[i];
      if (i + 1 < n) s += off * x[i + 1];
      y[i] = s;
    }
  };
}

la::Vector matvec(const la::LinearOperator& op, const la::Vector& x) {
  la::Vector y(x.size());
  op(x.data(), y.data());
  return y;
}

la::LinearOperator laplacian_1d(std::size_t n) {
  return tridiagonal(la::Vector(n, 2.0), -1.0);
}

TEST(Cg, SolvesLaplacian) {
  const std::size_t n = 200;
  const auto op = laplacian_1d(n);
  auto xref = random_vector(n);
  auto b = matvec(op, xref);
  la::Vector x(n, 0.0);
  auto res = la::cg_solve(op, b, x, la::identity_preconditioner(), {.rtol = 1e-12});
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-6);
}

TEST(Cg, JacobiPreconditionerReducesIterations) {
  const std::size_t n = 300;
  // badly scaled diagonal
  la::Vector diag(n);
  for (std::size_t i = 0; i < n; ++i)
    diag[i] = 2.0 * (1.0 + 999.0 * static_cast<double>(i) / static_cast<double>(n - 1));
  const auto op = tridiagonal(diag, -0.5);
  auto b = random_vector(n);

  la::Vector x1(n, 0.0), x2(n, 0.0);
  auto r1 = la::cg_solve(op, b, x1, la::identity_preconditioner(), {.rtol = 1e-10});
  auto r2 = la::cg_solve(op, b, x2, la::jacobi_preconditioner(diag), {.rtol = 1e-10});
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
}

TEST(Cg, ZeroRhsImmediateConvergence) {
  const auto op = laplacian_1d(10);
  la::Vector b(10, 0.0), x(10, 0.0);
  auto res = la::cg_solve(op, b, x, la::identity_preconditioner());
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
}

TEST(Cg, ConvergedStartNeverAppliesThePreconditioner) {
  // an exact-inverse preconditioner is a full solve: a start that already
  // meets the tolerance must return before paying for it
  const std::size_t n = 50;
  const auto op = laplacian_1d(n);
  std::size_t calls = 0;
  const la::Preconditioner counting = [&calls](const double* r, double* z, std::size_t m) {
    ++calls;
    for (std::size_t i = 0; i < m; ++i) z[i] = r[i];
  };
  const auto xref = random_vector(n);
  const auto b = matvec(op, xref);
  la::Vector x = xref;
  auto res = la::cg_solve(op, b, x, counting, {.rtol = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_EQ(calls, 0u);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(x[i], xref[i]);  // untouched

  x.fill(0.0);  // a zero start must iterate, and precondition every iteration
  res = la::cg_solve(op, b, x, counting, {.rtol = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.iterations, 0u);
  EXPECT_GE(calls, res.iterations);
}

TEST(Cg, SolutionProjectorCutsIterations) {
  // Unsteady-like sequence of solves with a smoothly varying RHS: the
  // projected initial guess must reduce iteration counts vs a zero guess
  // (the paper's "predicting a good initial state").
  const std::size_t n = 400;
  const auto op = laplacian_1d(n);

  la::SolutionProjector proj(6);
  std::size_t iters_cold = 0, iters_warm = 0;
  for (int step = 0; step < 12; ++step) {
    la::Vector b(n);
    const double t = 0.05 * step;
    for (std::size_t i = 0; i < n; ++i) {
      const double s = static_cast<double>(i) / static_cast<double>(n);
      b[i] = std::sin(2 * M_PI * s + t) + 0.3 * std::cos(4 * M_PI * s - 0.5 * t);
    }
    la::Vector x_cold(n, 0.0);
    auto rc = la::cg_solve(op, b, x_cold, la::identity_preconditioner(), {.rtol = 1e-10});

    la::Vector x_warm;
    proj.predict(b, x_warm);
    auto rw = la::cg_solve(op, b, x_warm, la::identity_preconditioner(), {.rtol = 1e-10});
    proj.record(op, x_warm);

    if (step >= 4) {  // after warmup the basis should pay off
      iters_cold += rc.iterations;
      iters_warm += rw.iterations;
    }
    EXPECT_TRUE(rc.converged);
    EXPECT_TRUE(rw.converged);
  }
  EXPECT_LT(iters_warm, iters_cold / 2);
}

// ---------------- Eig ----------------

TEST(Eig, DiagonalMatrix) {
  la::DenseMatrix A(3, 3);
  A(0, 0) = 1.0;
  A(1, 1) = 5.0;
  A(2, 2) = 3.0;
  auto e = la::eig_symmetric(A);
  ASSERT_TRUE(e.converged);
  EXPECT_NEAR(e.values[0], 5.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
  EXPECT_NEAR(e.values[2], 1.0, 1e-12);
}

TEST(Eig, ReconstructsMatrix) {
  const std::size_t n = 20;
  la::DenseMatrix A(n, n);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      A(i, j) = d(rng);
      A(j, i) = A(i, j);
    }
  auto e = la::eig_symmetric(A);
  ASSERT_TRUE(e.converged);
  // A == V diag(l) V^T
  la::DenseMatrix R(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += e.vecs(i, k) * e.values[k] * e.vecs(j, k);
      R(i, j) = s;
    }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(R(i, j), A(i, j), 1e-9);
}

TEST(Eig, OrthonormalEigenvectors) {
  const std::size_t n = 15;
  la::DenseMatrix A(n, n);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) A(i, j) = A(j, i) = d(rng);
  auto e = la::eig_symmetric(A);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += e.vecs(k, a) * e.vecs(k, b);
      EXPECT_NEAR(s, a == b ? 1.0 : 0.0, 1e-10);
    }
}

/// max_k ||A v_k - lambda_k v_k||_2 / max(1, ||A||_F) and max |V^T V - I|.
std::pair<double, double> eig_errors(const la::DenseMatrix& A, const la::EigResult& e) {
  const std::size_t n = A.rows();
  double residual = 0.0, orth = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    double r2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double s = -e.values[k] * e.vecs(i, k);
      for (std::size_t j = 0; j < n; ++j) s += A(i, j) * e.vecs(j, k);
      r2 += s * s;
    }
    residual = std::max(residual, std::sqrt(r2));
    for (std::size_t l = 0; l < n; ++l) {
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) s += e.vecs(i, k) * e.vecs(i, l);
      orth = std::max(orth, std::fabs(s - (k == l ? 1.0 : 0.0)));
    }
  }
  return {residual / std::max(1.0, A.frobenius()), orth};
}

/// Q diag(values) Q^T for a random orthogonal Q (Gram-Schmidt, twice).
la::DenseMatrix rotated_diagonal(const std::vector<double>& values, unsigned seed) {
  const std::size_t n = values.size();
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  la::DenseMatrix Q(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) Q(i, j) = u(gen);
  for (std::size_t k = 0; k < n; ++k)
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t l = 0; l < k; ++l) {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) s += Q(i, k) * Q(i, l);
        for (std::size_t i = 0; i < n; ++i) Q(i, k) -= s * Q(i, l);
      }
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) s += Q(i, k) * Q(i, k);
      for (std::size_t i = 0; i < n; ++i) Q(i, k) /= std::sqrt(s);
    }
  la::DenseMatrix A(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += Q(i, k) * values[k] * Q(j, k);
      A(i, j) = s;
    }
  for (std::size_t i = 0; i < n; ++i)  // exactly symmetric
    for (std::size_t j = 0; j < i; ++j) A(j, i) = A(i, j);
  return A;
}

TEST(Eig, OneAndTwoByTwo) {
  la::DenseMatrix A1(1, 1, -3.0);
  auto e1 = la::eig_symmetric(A1);
  ASSERT_TRUE(e1.converged);
  EXPECT_EQ(e1.values[0], -3.0);
  EXPECT_EQ(std::fabs(e1.vecs(0, 0)), 1.0);

  la::DenseMatrix A2(2, 2, 1.0);
  A2(0, 0) = A2(1, 1) = 2.0;
  auto e2 = la::eig_symmetric(A2);
  ASSERT_TRUE(e2.converged);
  EXPECT_NEAR(e2.values[0], 3.0, 1e-15);
  EXPECT_NEAR(e2.values[1], 1.0, 1e-15);
  EXPECT_NEAR(e2.vecs(0, 0), e2.vecs(1, 0), 1e-15);   // (1, 1) / sqrt 2
  EXPECT_NEAR(e2.vecs(0, 1), -e2.vecs(1, 1), 1e-15);  // (1, -1) / sqrt 2
  const auto [res, orth] = eig_errors(A2, e2);
  EXPECT_LE(res, 1e-15);
  EXPECT_LE(orth, 1e-15);
}

TEST(Eig, ZeroMatrix) {
  const la::DenseMatrix A(6, 6);
  auto e = la::eig_symmetric(A);
  ASSERT_TRUE(e.converged);
  for (double v : e.values) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(eig_errors(A, e).second, 0.0);  // the identity
}

TEST(Eig, RepeatedAndClusteredEigenvalues) {
  const std::vector<std::vector<double>> spectra = {
      {4.0, 4.0, 4.0, 1.0, 1.0, -2.0, -2.0, 0.5},                  // repeated
      {2.0, 1.0 + 3e-12, 1.0 + 2e-12, 1.0 + 1e-12, 1.0, 1.0 - 1e-12, -1.0},  // clustered
      std::vector<double>(7, 2.5),                                  // one eigenvalue
  };
  for (std::size_t c = 0; c < spectra.size(); ++c) {
    const auto A = rotated_diagonal(spectra[c], 7 + static_cast<unsigned>(c));
    auto e = la::eig_symmetric(A);
    ASSERT_TRUE(e.converged) << "spectrum " << c;
    auto want = spectra[c];
    std::sort(want.begin(), want.end(), std::greater<>());
    for (std::size_t k = 0; k < want.size(); ++k)
      EXPECT_NEAR(e.values[k], want[k], 1e-14 * A.frobenius()) << "spectrum " << c;
    const auto [res, orth] = eig_errors(A, e);
    EXPECT_LE(res, 1e-14) << "spectrum " << c;
    EXPECT_LE(orth, 1e-14) << "spectrum " << c;
  }
}

TEST(Eig, GllAxisMatrix) {
  // M^{-1/2} K M^{-1/2} of the assembled 1D GLL mass and stiffness on the
  // cdc3d_sem x axis (8 elements of length 0.5, P = 6) with its first node
  // Dirichlet: the 48 x 48 matrix behind one axis of the box preconditioner
  const std::size_t ne = 8, P = 6, n = ne * P + 1;
  const double h = 0.5;
  const auto rule = sem::gll_rule(static_cast<int>(P));
  const auto D = sem::gll_diff_matrix(rule);
  std::vector<double> m(n, 0.0);
  la::DenseMatrix K(n, n);
  for (std::size_t e = 0; e < ne; ++e)
    for (std::size_t a = 0; a <= P; ++a) {
      m[e * P + a] += 0.5 * h * rule.weights[a];
      for (std::size_t b = 0; b <= P; ++b)
        for (std::size_t q = 0; q <= P; ++q)
          K(e * P + a, e * P + b) += 2.0 / h * D(q, a) * rule.weights[q] * D(q, b);
    }
  la::DenseMatrix B(n - 1, n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    for (std::size_t j = 0; j + 1 < n; ++j)
      B(i, j) = K(i + 1, j + 1) / std::sqrt(m[i + 1] * m[j + 1]);
  const auto e = la::eig_symmetric(B);
  ASSERT_TRUE(e.converged);
  EXPECT_GT(e.values[n - 2], 0.0);  // SPD with a Dirichlet end
  const auto [res, orth] = eig_errors(B, e);
  EXPECT_LE(res, 2e-15);
  EXPECT_LE(orth, 1e-14);
}

TEST(Eig, NonFiniteInputIsNotConverged) {
  la::DenseMatrix A = la::DenseMatrix::identity(4);
  A(2, 1) = A(1, 2) = std::nan("");
  EXPECT_FALSE(la::eig_symmetric(A).converged);
}

// ---------------- Stats ----------------

TEST(Stats, MomentsOfKnownSample) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  auto m = la::stats::moments(x);
  EXPECT_DOUBLE_EQ(m.mean, 3.0);
  EXPECT_DOUBLE_EQ(m.variance, 2.5);
  EXPECT_NEAR(m.skewness, 0.0, 1e-12);
}

TEST(Stats, GaussianSampleLooksGaussian) {
  std::normal_distribution<double> nd(0.0, 1.03);
  std::vector<double> x(200000);
  for (auto& v : x) v = nd(rng);
  auto m = la::stats::moments(x);
  EXPECT_NEAR(m.mean, 0.0, 0.02);
  EXPECT_NEAR(m.stddev, 1.03, 0.02);
  auto h = la::stats::histogram(x, -5.0, 5.0, 100);
  EXPECT_LT(la::stats::gaussian_l1_distance(h, m.mean, m.stddev), 0.05);
}

TEST(Stats, HistogramMassNormalised) {
  auto x = std::vector<double>{0.1, 0.2, 0.3, 0.9, 1.5, -2.0};
  auto h = la::stats::histogram(x, -1.0, 1.0, 10);
  double mass = 0.0;
  for (double dgt : h.density) mass += dgt * h.bin_width;
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

}  // namespace
