#include "la/cg.hpp"

#include <cmath>

#include "la/simd.hpp"
#include "telemetry/registry.hpp"

namespace la {

Preconditioner identity_preconditioner() {
  return [](const double* r, double* z, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i];
  };
}

Preconditioner jacobi_preconditioner(const Vector& diag) {
  const Vector* d = &diag;
  return [d](const double* r, double* z, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / (*d)[i];
  };
}

CgResult cg_solve(const LinearOperator& A, const Vector& b, Vector& x,
                  const Preconditioner& M, const CgOptions& opt) {
  telemetry::ScopedPhase phase("cg.solve");
  telemetry::count("cg.solves");
  telemetry::sample_reset("cg.residual");
  const std::size_t n = b.size();
  if (x.size() != n) x.resize(n);

  Vector r(n), Ap(n);

  A(x.data(), Ap.data());
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - Ap[i];

  const double bnorm = std::sqrt(simd::dot(b.data(), b.data(), n));
  const double stop = std::max(opt.rtol * bnorm, opt.atol);

  // a start that already meets the tolerance never pays for the
  // preconditioner (an exact inverse is a full solve)
  CgResult res;
  double rnorm = std::sqrt(simd::dot(r.data(), r.data(), n));
  telemetry::sample("cg.residual", rnorm);
  if (rnorm <= stop) {
    res.converged = true;
    res.residual_norm = rnorm;
    return res;
  }

  Vector z(n), p(n);
  M(r.data(), z.data(), n);
  for (std::size_t i = 0; i < n; ++i) p[i] = z[i];
  double rz = simd::dot(r.data(), z.data(), n);

  // Fused iteration body: the solution update is deferred past the
  // convergence check and folded into the (r, z) reduction, and the
  // residual update is folded into the norm it feeds, so one iteration
  // makes 4 full-vector sweeps (dot, axpy_norm2, axpy_dot, xpay) plus the
  // operator and preconditioner instead of the previous ~7.
  for (std::size_t it = 1; it <= opt.max_iter; ++it) {
    A(p.data(), Ap.data());
    const double pAp = simd::dot(p.data(), Ap.data(), n);
    if (pAp <= 0.0) {  // not SPD / breakdown
      telemetry::count("cg.breakdowns");
      // x was never touched this iteration; report the true residual of the
      // iterate being returned rather than the stale pre-iteration norm.
      A(x.data(), Ap.data());
      for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - Ap[i];
      rnorm = std::sqrt(simd::dot(r.data(), r.data(), n));
      break;
    }
    const double alpha = rz / pAp;
    rnorm = std::sqrt(simd::axpy_norm2(-alpha, Ap.data(), r.data(), n));
    res.iterations = it;
    telemetry::count("cg.iterations");
    telemetry::sample("cg.residual", rnorm);
    if (rnorm <= stop) {
      simd::axpy(alpha, p.data(), x.data(), n);
      res.converged = true;
      break;
    }

    M(r.data(), z.data(), n);
    const double rz_new = simd::axpy_dot(alpha, p.data(), x.data(), r.data(), z.data(), n);
    const double beta = rz_new / rz;
    rz = rz_new;
    simd::xpay(z.data(), beta, p.data(), n);  // p = z + beta p
  }
  res.residual_norm = rnorm;
  return res;
}

std::size_t SolutionProjector::predict(const LinearOperator& A, const Vector& b,
                                       Vector& guess) const {
  (void)A;
  const std::size_t n = b.size();
  if (guess.size() != n) guess.resize(n);  // keeps a caller's buffer of the right size
  guess.fill(0.0);
  std::size_t used = 0;
  // basis_ is kept A-orthonormal, so the projection coefficients are plain
  // inner products of b with the basis vectors.
  for (std::size_t k = 0; k < basis_.size(); ++k) {
    if (basis_[k].size() != n) continue;
    const double c = simd::dot(b.data(), basis_[k].data(), n);
    simd::axpy(c, basis_[k].data(), guess.data(), n);
    ++used;
  }
  return used;
}

void SolutionProjector::record(const LinearOperator& A, const Vector& x) {
  const std::size_t n = x.size();
  Vector v = x;
  Vector Av(n);

  A(v.data(), Av.data());
  const double xAx = simd::dot(v.data(), Av.data(), n);
  if (xAx <= 0.0) return;

  // A-orthogonalise against the stored basis (modified Gram-Schmidt, done
  // twice: a single pass loses orthogonality exactly in the near-dependent
  // case that matters here). Av is carried through the elimination using
  // the stored images (A basis_k), so the single operator apply above is
  // the only one: A(v - sum c_k basis_k) = Av - sum c_k images_k.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < basis_.size(); ++k) {
      if (basis_[k].size() != n) continue;
      const double c = simd::dot(v.data(), images_[k].data(), n);
      simd::axpy(-c, basis_[k].data(), v.data(), n);
      simd::axpy(-c, images_[k].data(), Av.data(), n);
    }
  }
  const double vAv = simd::dot(v.data(), Av.data(), n);
  // Reject components that are (numerically) inside the stored span: keeping
  // them would normalise round-off noise into a basis vector and poison
  // later predictions.
  if (vAv <= 1e-12 * xAx) return;
  const double s = 1.0 / std::sqrt(vAv);
  simd::scale(s, v.data(), n);
  simd::scale(s, Av.data(), n);

  basis_.push_back(std::move(v));
  images_.push_back(std::move(Av));
  if (basis_.size() > depth_) {
    basis_.pop_front();
    images_.pop_front();
  }
}

}  // namespace la
