// The paper's Table 1 kernels (Sec. 3.5), scalar and AVX2+FMA. This TU is
// compiled with -mavx2 -mfma; the scalar versions are pinned to
// non-vectorised codegen so that the SIMD-vs-scalar ratio table1_simd
// measures is the paper's comparison (hand-SIMDized vs plain code).

#include "table1/kernels.hpp"

#include <immintrin.h>

namespace la::simd {

#define NO_AUTOVEC __attribute__((optimize("no-tree-vectorize", "no-unroll-loops")))

namespace {

inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

}  // namespace

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

#undef NO_AUTOVEC

}  // namespace la::simd
