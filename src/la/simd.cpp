// Table-1 kernels. This TU is compiled with -mavx2 -mfma; the scalar
// reference versions are pinned to non-vectorised codegen so that the
// SIMD-vs-scalar ratio measured by bench/table1_simd reflects the same
// comparison the paper makes (hand-SIMDized vs plain code).

#include "la/simd.hpp"

#include <cmath>
#include <immintrin.h>

namespace la::simd {

Isa detect() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") ? Isa::Avx2
                                                                         : Isa::Scalar;
}

#define NO_AUTOVEC __attribute__((optimize("no-tree-vectorize", "no-unroll-loops")))

NO_AUTOVEC
void vmul_scalar(double* z, const double* x, const double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = x[i] * y[i];
}

NO_AUTOVEC
double dot_xyz_scalar(const double* x, const double* y, const double* z, std::size_t n) {
  double a = 0.0;
  for (std::size_t i = 0; i < n; ++i) a += x[i] * y[i] * z[i];
  return a;
}

NO_AUTOVEC
double dot_xyy_scalar(const double* x, const double* y, std::size_t n) {
  double a = 0.0;
  for (std::size_t i = 0; i < n; ++i) a += x[i] * y[i] * y[i];
  return a;
}

void vmul_avx2(double* z, const double* x, const double* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(z + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(z + i + 4,
                     _mm256_mul_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4)));
  }
  for (; i < n; ++i) z[i] = x[i] * y[i];
}

namespace {
inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}
}  // namespace

double dot_xyz_avx2(const double* x, const double* y, const double* z, std::size_t n) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 = _mm256_fmadd_pd(_mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)),
                         _mm256_loadu_pd(z + i), a0);
    a1 = _mm256_fmadd_pd(
        _mm256_mul_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4)),
        _mm256_loadu_pd(z + i + 4), a1);
  }
  double a = hsum(_mm256_add_pd(a0, a1));
  for (; i < n; ++i) a += x[i] * y[i] * z[i];
  return a;
}

double dot_xyy_avx2(const double* x, const double* y, std::size_t n) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d y0 = _mm256_loadu_pd(y + i);
    const __m256d y1 = _mm256_loadu_pd(y + i + 4);
    a0 = _mm256_fmadd_pd(_mm256_mul_pd(_mm256_loadu_pd(x + i), y0), y0, a0);
    a1 = _mm256_fmadd_pd(_mm256_mul_pd(_mm256_loadu_pd(x + i + 4), y1), y1, a1);
  }
  double a = hsum(_mm256_add_pd(a0, a1));
  for (; i < n; ++i) a += x[i] * y[i] * y[i];
  return a;
}

void vmul(double* z, const double* x, const double* y, std::size_t n) {
  static const Isa isa = detect();
  if (isa == Isa::Avx2) return vmul_avx2(z, x, y, n);
  vmul_scalar(z, x, y, n);
}

double dot_xyz(const double* x, const double* y, const double* z, std::size_t n) {
  static const Isa isa = detect();
  return isa == Isa::Avx2 ? dot_xyz_avx2(x, y, z, n) : dot_xyz_scalar(x, y, z, n);
}

double dot_xyy(const double* x, const double* y, std::size_t n) {
  static const Isa isa = detect();
  return isa == Isa::Avx2 ? dot_xyy_avx2(x, y, n) : dot_xyy_scalar(x, y, n);
}

namespace {

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), a0);
    a1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4), a1);
  }
  double a = hsum(_mm256_add_pd(a0, a1));
  for (; i < n; ++i) a += x[i] * y[i];
  return a;
}

NO_AUTOVEC
double dot_plain(const double* x, const double* y, std::size_t n) {
  double a = 0.0;
  for (std::size_t i = 0; i < n; ++i) a += x[i] * y[i];
  return a;
}

}  // namespace

double dot(const double* x, const double* y, std::size_t n) {
  static const Isa isa = detect();
  return isa == Isa::Avx2 ? dot_avx2(x, y, n) : dot_plain(x, y, n);
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  static const Isa isa = detect();
  if (isa == Isa::Avx2) {
    const __m256d av = _mm256_set1_pd(a);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    for (; i < n; ++i) y[i] += a * x[i];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void xpay(const double* x, double a, double* y, std::size_t n) {
  static const Isa isa = detect();
  if (isa == Isa::Avx2) {
    const __m256d av = _mm256_set1_pd(a);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
    for (; i < n; ++i) y[i] = x[i] + a * y[i];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] + a * y[i];
}

NO_AUTOVEC
void scale_scalar(double a, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= a;
}

void scale_avx2(double a, double* x, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(x + i + 4, _mm256_mul_pd(av, _mm256_loadu_pd(x + i + 4)));
  }
  for (; i < n; ++i) x[i] *= a;
}

void scale(double a, double* x, std::size_t n) {
  static const Isa isa = detect();
  if (isa == Isa::Avx2) return scale_avx2(a, x, n);
  scale_scalar(a, x, n);
}

NO_AUTOVEC
void dpd_pair_forces_scalar(std::size_t n, double inv_rc, double inv_sqrt_dt, const double* dx,
                            const double* dy, const double* dz, const double* r2,
                            const double* dvx, const double* dvy, const double* dvz,
                            const double* zeta, double a, double g, double sig, double* fx,
                            double* fy, double* fz) {
  for (std::size_t k = 0; k < n; ++k) {
    const double r = std::sqrt(r2[k]);
    const double inv_r = 1.0 / r;
    const double w = 1.0 - r * inv_rc;
    const double rv = (dx[k] * dvx[k] + dy[k] * dvy[k] + dz[k] * dvz[k]) * inv_r;
    const double fmag = a * w - g * w * w * rv + sig * w * zeta[k] * inv_sqrt_dt;
    const double s = fmag * inv_r;
    fx[k] = dx[k] * s;
    fy[k] = dy[k] * s;
    fz[k] = dz[k] * s;
  }
}

namespace {

/// One 4-lane block of the Groot-Warren pair kernel. Both the main loop and
/// the (padded) tail go through this exact instruction sequence, so the
/// value computed for a pair never depends on its position in the batch —
/// load-bearing for bitwise checkpoint/restart, where the same pair can sit
/// at a different batch offset depending on when the Verlet list was built.
inline void dpd_block4(__m256d one, __m256d virc, __m256d visdt, __m256d va, __m256d vg,
                       __m256d vsig, const double* dx, const double* dy, const double* dz,
                       const double* r2, const double* dvx, const double* dvy,
                       const double* dvz, const double* zeta, double* fx, double* fy,
                       double* fz) {
  const __m256d vdx = _mm256_loadu_pd(dx);
  const __m256d vdy = _mm256_loadu_pd(dy);
  const __m256d vdz = _mm256_loadu_pd(dz);
  const __m256d vr = _mm256_sqrt_pd(_mm256_loadu_pd(r2));
  const __m256d vinv_r = _mm256_div_pd(one, vr);
  const __m256d vw = _mm256_fnmadd_pd(vr, virc, one);  // 1 - r/rc
  const __m256d vrv =
      _mm256_mul_pd(_mm256_fmadd_pd(vdx, _mm256_loadu_pd(dvx),
                                    _mm256_fmadd_pd(vdy, _mm256_loadu_pd(dvy),
                                                    _mm256_mul_pd(vdz, _mm256_loadu_pd(dvz)))),
                    vinv_r);
  // fmag = w * (a - g*w*rv + sig*zeta*inv_sqrt_dt)
  const __m256d vdiss = _mm256_mul_pd(_mm256_mul_pd(vg, vw), vrv);
  const __m256d vrand = _mm256_mul_pd(_mm256_mul_pd(vsig, _mm256_loadu_pd(zeta)), visdt);
  const __m256d vfmag = _mm256_mul_pd(vw, _mm256_add_pd(_mm256_sub_pd(va, vdiss), vrand));
  const __m256d vs = _mm256_mul_pd(vfmag, vinv_r);
  _mm256_storeu_pd(fx, _mm256_mul_pd(vdx, vs));
  _mm256_storeu_pd(fy, _mm256_mul_pd(vdy, vs));
  _mm256_storeu_pd(fz, _mm256_mul_pd(vdz, vs));
}

}  // namespace

void dpd_pair_forces_avx2(std::size_t n, double inv_rc, double inv_sqrt_dt, const double* dx,
                          const double* dy, const double* dz, const double* r2,
                          const double* dvx, const double* dvy, const double* dvz,
                          const double* zeta, double a, double g, double sig, double* fx,
                          double* fy, double* fz) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d virc = _mm256_set1_pd(inv_rc);
  const __m256d visdt = _mm256_set1_pd(inv_sqrt_dt);
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vg = _mm256_set1_pd(g);
  const __m256d vsig = _mm256_set1_pd(sig);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4)
    dpd_block4(one, virc, visdt, va, vg, vsig, dx + k, dy + k, dz + k, r2 + k, dvx + k,
               dvy + k, dvz + k, zeta + k, fx + k, fy + k, fz + k);
  if (k < n) {
    // tail: pad to a full block (r2 = 1 keeps the padded lanes exception
    // free) and run the identical 4-lane body, then copy out the real lanes
    const std::size_t m = n - k;
    alignas(32) double tdx[4] = {}, tdy[4] = {}, tdz[4] = {}, tr2[4] = {1.0, 1.0, 1.0, 1.0},
                       tdvx[4] = {}, tdvy[4] = {}, tdvz[4] = {}, tzeta[4] = {}, tfx[4], tfy[4],
                       tfz[4];
    for (std::size_t l = 0; l < m; ++l) {
      tdx[l] = dx[k + l];
      tdy[l] = dy[k + l];
      tdz[l] = dz[k + l];
      tr2[l] = r2[k + l];
      tdvx[l] = dvx[k + l];
      tdvy[l] = dvy[k + l];
      tdvz[l] = dvz[k + l];
      tzeta[l] = zeta[k + l];
    }
    dpd_block4(one, virc, visdt, va, vg, vsig, tdx, tdy, tdz, tr2, tdvx, tdvy, tdvz, tzeta, tfx,
               tfy, tfz);
    for (std::size_t l = 0; l < m; ++l) {
      fx[k + l] = tfx[l];
      fy[k + l] = tfy[l];
      fz[k + l] = tfz[l];
    }
  }
}

void dpd_pair_forces(std::size_t n, double inv_rc, double inv_sqrt_dt, const double* dx,
                     const double* dy, const double* dz, const double* r2, const double* dvx,
                     const double* dvy, const double* dvz, const double* zeta, double a,
                     double g, double sig, double* fx, double* fy, double* fz) {
  static const Isa isa = detect();
  if (isa == Isa::Avx2)
    return dpd_pair_forces_avx2(n, inv_rc, inv_sqrt_dt, dx, dy, dz, r2, dvx, dvy, dvz, zeta, a,
                                g, sig, fx, fy, fz);
  dpd_pair_forces_scalar(n, inv_rc, inv_sqrt_dt, dx, dy, dz, r2, dvx, dvy, dvz, zeta, a, g, sig,
                         fx, fy, fz);
}

// --- batched SEM line kernels ------------------------------------------

NO_AUTOVEC
void lines_apply_scalar(const double* M, std::size_t n1, std::size_t nvec, const double* u,
                        double* y, const double* colscale, double coef) {
  for (std::size_t b = 0; b < n1; ++b) {
    const double* Mb = M + b * n1;
    double* yb = y + b * nvec;
    for (std::size_t v = 0; v < nvec; ++v) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += Mb[m] * u[m * nvec + v];
      yb[v] += coef * (colscale ? colscale[v] : 1.0) * s;
    }
  }
}

void lines_apply_avx2(const double* M, std::size_t n1, std::size_t nvec, const double* u,
                      double* y, const double* colscale, double coef) {
  const __m256d vcoef = _mm256_set1_pd(coef);
  const std::size_t vmain = nvec & ~static_cast<std::size_t>(3);
  const std::size_t rem = nvec - vmain;
  // The tail columns are padded once into a 4-wide block shared by every
  // output row b; padded lanes run the identical fmadd chain (their values
  // are never copied back), so a column's result is bitwise independent of
  // where it sits in the batch.
  alignas(32) double tu[kMaxLineN * 4];
  alignas(32) double tcs[4] = {0.0, 0.0, 0.0, 0.0};
  if (rem) {
    for (std::size_t m = 0; m < n1; ++m)
      for (std::size_t l = 0; l < 4; ++l)
        tu[m * 4 + l] = l < rem ? u[m * nvec + vmain + l] : 0.0;
    for (std::size_t l = 0; l < rem; ++l) tcs[l] = colscale ? colscale[vmain + l] : 1.0;
  }
  for (std::size_t b = 0; b < n1; ++b) {
    const double* Mb = M + b * n1;
    double* yb = y + b * nvec;
    for (std::size_t v = 0; v < vmain; v += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t m = 0; m < n1; ++m)
        acc = _mm256_fmadd_pd(_mm256_set1_pd(Mb[m]), _mm256_loadu_pd(u + m * nvec + v), acc);
      const __m256d cs =
          colscale ? _mm256_mul_pd(vcoef, _mm256_loadu_pd(colscale + v)) : vcoef;
      _mm256_storeu_pd(yb + v, _mm256_fmadd_pd(cs, acc, _mm256_loadu_pd(yb + v)));
    }
    if (rem) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t m = 0; m < n1; ++m)
        acc = _mm256_fmadd_pd(_mm256_set1_pd(Mb[m]), _mm256_load_pd(tu + m * 4), acc);
      const __m256d cs = _mm256_mul_pd(vcoef, _mm256_load_pd(tcs));
      alignas(32) double ty[4] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t l = 0; l < rem; ++l) ty[l] = yb[vmain + l];
      _mm256_store_pd(ty, _mm256_fmadd_pd(cs, acc, _mm256_load_pd(ty)));
      for (std::size_t l = 0; l < rem; ++l) yb[vmain + l] = ty[l];
    }
  }
}

void lines_apply(const double* M, std::size_t n1, std::size_t nvec, const double* u, double* y,
                 const double* colscale, double coef) {
  static const Isa isa = detect();
  if (isa == Isa::Avx2 && n1 <= kMaxLineN)
    return lines_apply_avx2(M, n1, nvec, u, y, colscale, coef);
  lines_apply_scalar(M, n1, nvec, u, y, colscale, coef);
}

NO_AUTOVEC
void lines_apply_t_scalar(const double* MT, std::size_t n1, std::size_t nlines, const double* u,
                          double* y, const double* rowscale, double coef) {
  for (std::size_t l = 0; l < nlines; ++l) {
    const double* ul = u + l * n1;
    double* yl = y + l * n1;
    const double c = coef * (rowscale ? rowscale[l] : 1.0);
    for (std::size_t a = 0; a < n1; ++a) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += ul[m] * MT[m * n1 + a];
      yl[a] += c * s;
    }
  }
}

void lines_apply_t_avx2(const double* MT, std::size_t n1, std::size_t nlines, const double* u,
                        double* y, const double* rowscale, double coef) {
  const std::size_t amain = n1 & ~static_cast<std::size_t>(3);
  const std::size_t rem = n1 - amain;
  // padded tail of the transposed matrix, shared by every line
  alignas(32) double tmt[kMaxLineN * 4];
  if (rem)
    for (std::size_t m = 0; m < n1; ++m)
      for (std::size_t l = 0; l < 4; ++l)
        tmt[m * 4 + l] = l < rem ? MT[m * n1 + amain + l] : 0.0;
  for (std::size_t l = 0; l < nlines; ++l) {
    const double* ul = u + l * n1;
    double* yl = y + l * n1;
    const __m256d vc = _mm256_set1_pd(rowscale ? coef * rowscale[l] : coef);
    for (std::size_t a = 0; a < amain; a += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t m = 0; m < n1; ++m)
        acc = _mm256_fmadd_pd(_mm256_set1_pd(ul[m]), _mm256_loadu_pd(MT + m * n1 + a), acc);
      _mm256_storeu_pd(yl + a, _mm256_fmadd_pd(vc, acc, _mm256_loadu_pd(yl + a)));
    }
    if (rem) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t m = 0; m < n1; ++m)
        acc = _mm256_fmadd_pd(_mm256_set1_pd(ul[m]), _mm256_load_pd(tmt + m * 4), acc);
      alignas(32) double ty[4] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t q = 0; q < rem; ++q) ty[q] = yl[amain + q];
      _mm256_store_pd(ty, _mm256_fmadd_pd(vc, acc, _mm256_load_pd(ty)));
      for (std::size_t q = 0; q < rem; ++q) yl[amain + q] = ty[q];
    }
  }
}

void lines_apply_t(const double* MT, std::size_t n1, std::size_t nlines, const double* u,
                   double* y, const double* rowscale, double coef) {
  static const Isa isa = detect();
  if (isa == Isa::Avx2 && n1 <= kMaxLineN)
    return lines_apply_t_avx2(MT, n1, nlines, u, y, rowscale, coef);
  lines_apply_t_scalar(MT, n1, nlines, u, y, rowscale, coef);
}

// --- dense product of any size -------------------------------------------

NO_AUTOVEC
void gemm_scalar(const double* A, const double* B, double* C, std::size_t m, std::size_t k,
                 std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += A[i * k + p] * B[p * n + j];
      C[i * n + j] = s;
    }
}

void gemm_avx2(const double* A, const double* B, double* C, std::size_t m, std::size_t k,
               std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* Ai = A + i * k;
    double* Ci = C + i * n;
    std::size_t j = 0;
    // 8 columns in two independent accumulators, then 4, then scalar
    for (; j + 8 <= n; j += 8) {
      __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d a = _mm256_set1_pd(Ai[p]);
        c0 = _mm256_fmadd_pd(a, _mm256_loadu_pd(B + p * n + j), c0);
        c1 = _mm256_fmadd_pd(a, _mm256_loadu_pd(B + p * n + j + 4), c1);
      }
      _mm256_storeu_pd(Ci + j, c0);
      _mm256_storeu_pd(Ci + j + 4, c1);
    }
    for (; j + 4 <= n; j += 4) {
      __m256d c0 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < k; ++p)
        c0 = _mm256_fmadd_pd(_mm256_set1_pd(Ai[p]), _mm256_loadu_pd(B + p * n + j), c0);
      _mm256_storeu_pd(Ci + j, c0);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += Ai[p] * B[p * n + j];
      Ci[j] = s;
    }
  }
}

void gemm(const double* A, const double* B, double* C, std::size_t m, std::size_t k,
          std::size_t n) {
  static const Isa isa = detect();
  if (isa == Isa::Avx2) return gemm_avx2(A, B, C, m, k, n);
  gemm_scalar(A, B, C, m, k, n);
}

// --- fused CG vector passes --------------------------------------------

NO_AUTOVEC
double axpy_norm2_scalar(double a, const double* x, double* y, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a * x[i];
    s += y[i] * y[i];
  }
  return s;
}

double axpy_norm2_avx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    const __m256d y1 =
        _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4));
    _mm256_storeu_pd(y + i, y0);
    _mm256_storeu_pd(y + i + 4, y1);
    s0 = _mm256_fmadd_pd(y0, y0, s0);
    s1 = _mm256_fmadd_pd(y1, y1, s1);
  }
  double s = hsum(_mm256_add_pd(s0, s1));
  for (; i < n; ++i) {
    y[i] += a * x[i];
    s += y[i] * y[i];
  }
  return s;
}

double axpy_norm2(double a, const double* x, double* y, std::size_t n) {
  static const Isa isa = detect();
  return isa == Isa::Avx2 ? axpy_norm2_avx2(a, x, y, n) : axpy_norm2_scalar(a, x, y, n);
}

NO_AUTOVEC
double axpy_dot_scalar(double a, const double* x, double* y, const double* u, const double* v,
                       std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a * x[i];
    s += u[i] * v[i];
  }
  return s;
}

double axpy_dot_avx2(double a, const double* x, double* y, const double* u, const double* v,
                     std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(y + i,
                     _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(
        y + i + 4, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4)));
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(u + i), _mm256_loadu_pd(v + i), s0);
    s1 = _mm256_fmadd_pd(_mm256_loadu_pd(u + i + 4), _mm256_loadu_pd(v + i + 4), s1);
  }
  double s = hsum(_mm256_add_pd(s0, s1));
  for (; i < n; ++i) {
    y[i] += a * x[i];
    s += u[i] * v[i];
  }
  return s;
}

double axpy_dot(double a, const double* x, double* y, const double* u, const double* v,
                std::size_t n) {
  static const Isa isa = detect();
  return isa == Isa::Avx2 ? axpy_dot_avx2(a, x, y, u, v, n)
                          : axpy_dot_scalar(a, x, y, u, v, n);
}

#undef NO_AUTOVEC

}  // namespace la::simd
