#pragma once
// The three routines the paper SIMDizes on Cray XT5 (SSE) and BG/P (Double
// Hummer) for Table 1 (Sec. 3.5):
//   z[i] = x[i] * y[i]
//   a    = sum_i x[i] * y[i] * z[i]
//   a    = sum_i x[i] * y[i] * y[i]
// Each has a deliberately scalar reference and an AVX2+FMA form; the
// dispatched entry point picks the best one la::simd::detect() reports.
// No solver calls them: table1_simd measures the speedup ratio and la_test
// checks each form against its reference.

#include <cstddef>

#include "la/simd.hpp"

namespace la::simd {

void vmul_scalar(double* z, const double* x, const double* y, std::size_t n);
double dot_xyz_scalar(const double* x, const double* y, const double* z, std::size_t n);
double dot_xyy_scalar(const double* x, const double* y, std::size_t n);

// valid to call only if detect() == Isa::Avx2
void vmul_avx2(double* z, const double* x, const double* y, std::size_t n);
double dot_xyz_avx2(const double* x, const double* y, const double* z, std::size_t n);
double dot_xyy_avx2(const double* x, const double* y, std::size_t n);

void vmul(double* z, const double* x, const double* y, std::size_t n);
double dot_xyz(const double* x, const double* y, const double* z, std::size_t n);
double dot_xyy(const double* x, const double* y, std::size_t n);

}  // namespace la::simd
