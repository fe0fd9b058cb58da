#pragma once
// SIMD-tuned basic kernels (paper Sec. 3.5): each dispatched entry point
// below runs an AVX2+FMA implementation when detect() reports one and a
// plain loop otherwise. `scale` keeps its pinned-scalar form public for
// bench/table1_simd, which measures it next to the paper's three Table 1
// kernels (bench/table1/kernels.hpp).

#include <cstddef>

namespace la::simd {

/// Which implementation the kernels below will use.
enum class Isa { Scalar, Avx2 };

/// Best instruction set supported by the executing CPU.
Isa detect();

void scale_scalar(double a, double* x, std::size_t n);  // kept intentionally unvectorised
void scale_avx2(double a, double* x, std::size_t n);    // valid only if detect() == Avx2

// --- dispatched entry points used by CG / time steppers ---
double dot(const double* x, const double* y, std::size_t n);
void axpy(double a, const double* x, double* y, std::size_t n);   // y += a*x
void xpay(const double* x, double a, double* y, std::size_t n);   // y = x + a*y
void scale(double a, double* x, std::size_t n);                   // x *= a

// --- batched DPD pair-force kernel (Groot-Warren) ----------------------
//
// One lane per pair k of a neighbor run: given the minimum-image separation
// (dx,dy,dz) with r2 = dx^2+dy^2+dz^2, the relative velocity (dvx,dvy,dvz)
// = v_j - v_i and the symmetric noise zeta, and the coefficients shared by
// every lane, a (conservative), g (dissipative gamma) and sig
// (= sqrt(2 g kBT), computed by the caller), computes the force components
// on particle j:
//
//   w    = 1 - r * inv_rc
//   rv   = (dx dvx + dy dvy + dz dvz) / r
//   fmag = a w - g w^2 rv + sig w zeta inv_sqrt_dt
//   f    = (dx, dy, dz) * fmag / r        (i receives -f)
//
// The kernel does not filter: callers pass only in-range lanes (DpdSystem
// compacts away r >= rc and r ~ 0 before the call; such lanes would yield
// meaningless or non-finite forces), and a NaN input lane yields NaN. Within one
// ISA path the result for a lane is a pure function of that lane's inputs —
// independent of n and of the lane's position in the batch (the AVX2 tail is
// padded through the same 4-wide body) — so callers may re-batch the same
// pairs differently and still get bitwise-identical forces.
void dpd_pair_forces(std::size_t n, double inv_rc, double inv_sqrt_dt, const double* dx,
                     const double* dy, const double* dz, const double* r2, const double* dvx,
                     const double* dvy, const double* dvz, const double* zeta, double a,
                     double g, double sig, double* fx, double* fy, double* fz);
void dpd_pair_forces_scalar(std::size_t n, double inv_rc, double inv_sqrt_dt, const double* dx,
                            const double* dy, const double* dz, const double* r2,
                            const double* dvx, const double* dvy, const double* dvz,
                            const double* zeta, double a, double g, double sig, double* fx,
                            double* fy, double* fz);
void dpd_pair_forces_avx2(std::size_t n, double inv_rc, double inv_sqrt_dt, const double* dx,
                          const double* dy, const double* dz, const double* r2,
                          const double* dvx, const double* dvy, const double* dvz,
                          const double* zeta, double a, double g, double sig, double* fx,
                          double* fy, double* fz);

// --- batched SEM line kernels ------------------------------------------
//
// The sum-factorised SEM operators apply one small (P+1)x(P+1) coefficient
// matrix across every line of an element (or of a whole element batch).
// Two memory shapes cover all three tensor directions of the (c,b,a)
// element layout (`a` contiguous):
//
//   lines_apply:   the reduction runs across lines (strided); the kernel
//                  vectorises over the contiguous column index v:
//                    y[b*nvec + v] += coef * colscale[v]
//                                     * sum_m M[b*n1 + m] * u[m*nvec + v]
//                  (y/z passes: columns are (a) or (b,a) flattened).
//
//   lines_apply_t: the reduction runs along each contiguous line; the
//                  kernel broadcasts u and vectorises over the contiguous
//                  output index a using the transposed matrix:
//                    y[l*n1 + a] += coef * rowscale[l]
//                                   * sum_m u[l*n1 + m] * MT[m*n1 + a]
//                  (x pass: one call covers all (b,c) lines of an element).
//
// colscale / rowscale may be nullptr (treated as all-ones; multiplying by
// 1.0 is exact, so the scaled and unscaled paths agree bitwise). Both
// kernels accumulate into y; callers zero the output first. Within one ISA
// path the value written for an output entry is a pure function of its own
// line/column inputs and the matrix — independent of nvec/nlines and of
// the entry's position in the batch (AVX2 tails are padded through the
// same 4-wide body, the lane rule established by dpd_pair_forces) — so
// re-batching planes or whole elements cannot change results bitwise.
// The padded-tail scratch caps n1 at kMaxLineN; larger n1 dispatches to
// the scalar path (P > 23 is far beyond any SEM order used here).
inline constexpr std::size_t kMaxLineN = 24;

void lines_apply(const double* M, std::size_t n1, std::size_t nvec, const double* u, double* y,
                 const double* colscale, double coef);
void lines_apply_scalar(const double* M, std::size_t n1, std::size_t nvec, const double* u,
                        double* y, const double* colscale, double coef);
void lines_apply_avx2(const double* M, std::size_t n1, std::size_t nvec, const double* u,
                      double* y, const double* colscale, double coef);

void lines_apply_t(const double* MT, std::size_t n1, std::size_t nlines, const double* u,
                   double* y, const double* rowscale, double coef);
void lines_apply_t_scalar(const double* MT, std::size_t n1, std::size_t nlines, const double* u,
                          double* y, const double* rowscale, double coef);
void lines_apply_t_avx2(const double* MT, std::size_t n1, std::size_t nlines, const double* u,
                        double* y, const double* rowscale, double coef);

// --- dense product of any size -----------------------------------------
//
//   gemm: C = A B with A (m x k), B (k x n) and C (m x n), all row-major
//         and contiguous; C is overwritten. Vectorises over the columns of
//         C, with no cap on the sizes (the line kernels above stop at
//         kMaxLineN). It applies a whole-axis basis of a box mesh in the
//         Helmholtz fast-diagonalisation transforms (sem/helmholtz.cpp).
void gemm(const double* A, const double* B, double* C, std::size_t m, std::size_t k,
          std::size_t n);
void gemm_scalar(const double* A, const double* B, double* C, std::size_t m, std::size_t k,
                 std::size_t n);
void gemm_avx2(const double* A, const double* B, double* C, std::size_t m, std::size_t k,
               std::size_t n);

// --- fused CG vector passes --------------------------------------------
//
// Each CG iteration used to make ~7 separate sweeps over the full-length
// vectors; these two kernels fuse an update with the reduction that
// immediately follows it, cutting the sweep count to ~4 (see la/cg.cpp).
//
//   axpy_norm2: y += a*x, returns ||y||^2 of the updated y
//               (residual update fused with the convergence-check norm).
//   axpy_dot:   y += a*x, returns sum_i u[i]*v[i] over two unrelated
//               vectors read in the same sweep (solution update fused with
//               the (r, z) inner product of the preconditioned residual).
double axpy_norm2(double a, const double* x, double* y, std::size_t n);
double axpy_norm2_scalar(double a, const double* x, double* y, std::size_t n);
double axpy_norm2_avx2(double a, const double* x, double* y, std::size_t n);

double axpy_dot(double a, const double* x, double* y, const double* u, const double* v,
                std::size_t n);
double axpy_dot_scalar(double a, const double* x, double* y, const double* u, const double* v,
                       std::size_t n);
double axpy_dot_avx2(double a, const double* x, double* y, const double* u, const double* v,
                     std::size_t n);

}  // namespace la::simd
