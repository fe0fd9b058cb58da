#include "sem/helmholtz.hpp"

#include "resilience/blob_la.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "la/eig.hpp"
#include "la/simd.hpp"
#include "telemetry/registry.hpp"

namespace sem {

class BoxEigenbasis {
public:
  BoxEigenbasis(const Discretization3D& d, const std::vector<HexFace>& dirichlet) {
    std::array<bool, 6> fixed{};  // per face, in HexFace order: X0 X1 Y0 Y1 Z0 Z1
    for (HexFace f : dirichlet) fixed[static_cast<std::size_t>(f)] = true;
    for (std::size_t k = 0; k < 3; ++k)
      ax_[k] = axis_basis(d, d.element_counts()[k], d.element_size()[k], fixed[2 * k],
                          fixed[2 * k + 1]);
  }

  /// z = A^{-1} r on the free nodes and 0 on the Dirichlet nodes, for
  /// A = lambda M + nu K masked to the free nodes. The constant mode of a
  /// singular (pure-Neumann, lambda = 0) operator maps to 0. `work` holds
  /// two fields.
  void solve(double lambda, double nu, const double* r, double* z, double* work) const {
    const std::size_t nx = ax_[0].S.rows(), ny = ax_[1].S.rows(), nz = ax_[2].S.rows();
    double* t = work;
    double* s = work + nx * ny * nz;
    transform(ax_[0].S, ax_[1].ST, ax_[2].ST, r, t, s, t);  // t = S^T r
    const double* mx = ax_[0].mu.data();
    for (std::size_t k = 0; k < nz; ++k)
      for (std::size_t j = 0; j < ny; ++j) {
        const double base = lambda + nu * (ax_[2].mu[k] + ax_[1].mu[j]);
        double* line = t + (k * ny + j) * nx;
        for (std::size_t i = 0; i < nx; ++i) {
          const double den = base + nu * mx[i];
          line[i] = den == 0.0 ? 0.0 : line[i] / den;
        }
      }
    transform(ax_[0].ST, ax_[1].S, ax_[2].S, t, s, t, z);  // z = S t
  }

private:
  /// One axis of n lattice indices. S is n x n with zero rows and columns
  /// at Dirichlet ends; on the free indices S^T M S = I and S^T K S =
  /// diag(mu) for the assembled 1D GLL mass M and stiffness K.
  struct Axis {
    la::DenseMatrix S, ST;
    std::vector<double> mu;
  };

  static Axis axis_basis(const Discretization3D& d, std::size_t ne, double h, bool lo_dirichlet,
                         bool hi_dirichlet) {
    const auto P = static_cast<std::size_t>(d.order());
    const auto& w = d.rule().weights;
    const auto& D = d.diff_matrix();
    const std::size_t n = ne * P + 1;
    // assembled mass (diagonal) and stiffness: per element (h/2) w and
    // (2/h) D^T diag(w) D
    std::vector<double> m(n, 0.0);
    la::DenseMatrix K(n, n);
    for (std::size_t e = 0; e < ne; ++e)
      for (std::size_t a = 0; a <= P; ++a) {
        m[e * P + a] += 0.5 * h * w[a];
        for (std::size_t b = 0; b <= P; ++b) {
          double g = 0.0;
          for (std::size_t q = 0; q <= P; ++q) g += D(q, a) * w[q] * D(q, b);
          K(e * P + a, e * P + b) += 2.0 / h * g;
        }
      }
    std::vector<std::size_t> free;
    for (std::size_t i = 0; i < n; ++i)
      if (!(i == 0 && lo_dirichlet) && !(i == n - 1 && hi_dirichlet)) free.push_back(i);

    // K s = mu M s as the symmetric M^{-1/2} K M^{-1/2} v = mu v, s = M^{-1/2} v
    const std::size_t nf = free.size();
    la::DenseMatrix B(nf, nf);
    for (std::size_t i = 0; i < nf; ++i)
      for (std::size_t j = 0; j < nf; ++j)
        B(i, j) = K(free[i], free[j]) / std::sqrt(m[free[i]] * m[free[j]]);
    const auto eig = la::eig_symmetric(B);
    if (!eig.converged)
      throw std::runtime_error("HelmholtzSolver: the axis eigensolver did not converge");

    Axis ax{la::DenseMatrix(n, n), {}, std::vector<double>(n, 0.0)};
    for (std::size_t i = 0; i < nf; ++i)
      for (std::size_t k = 0; k < nf; ++k)
        ax.S(free[i], free[k]) = eig.vecs(i, k) / std::sqrt(m[free[i]]);
    for (std::size_t k = 0; k < nf; ++k) ax.mu[free[k]] = eig.values[k];
    // with both ends natural the smallest mode (last; values descend) is
    // the constant, exactly in K's null space
    if (!lo_dirichlet && !hi_dirichlet) ax.mu[free[nf - 1]] = 0.0;
    ax.ST = ax.S.transposed();
    return ax;
  }

  /// out = (Az (x) Ay (x) Bx^T) in, one axis per pass laid out like
  /// Operators::elem_axes: x along contiguous lines, y per z-plane, z with
  /// the whole field as one plane. a and b are scratch fields; out may be
  /// a, in may be b.
  void transform(const la::DenseMatrix& Bx, const la::DenseMatrix& Ay,
                 const la::DenseMatrix& Az, const double* in, double* a, double* b,
                 double* out) const {
    const std::size_t nx = ax_[0].S.rows(), ny = ax_[1].S.rows(), nz = ax_[2].S.rows();
    const std::size_t plane = nx * ny;
    la::simd::gemm(in, Bx.data(), a, ny * nz, nx, nx);
    for (std::size_t k = 0; k < nz; ++k)
      la::simd::gemm(Ay.data(), a + k * plane, b + k * plane, ny, ny, nx);
    la::simd::gemm(Az.data(), b, out, nz, nz, plane);
  }

  std::array<Axis, 3> ax_;
};

namespace {

/// Jacobi: diag(lambda M + nu K), with ones on the Dirichlet rows.
la::Vector jacobi_diag(const Operators<Discretization>& ops, double lambda, double nu,
                       const std::vector<std::size_t>& dnodes) {
  la::Vector diag = ops.helmholtz_diag(lambda, nu);
  for (std::size_t g : dnodes) diag[g] = 1.0;
  return diag;
}

}  // namespace

template <class Disc>
HelmholtzSolver<Disc>::HelmholtzSolver(const Operators<Disc>& ops, double lambda, double nu,
                                       std::vector<Boundary> dirichlet)
    : ops_(&ops), lambda_(lambda), nu_(nu) {
  const auto& d = ops.disc();
  is_dirichlet_.assign(d.num_nodes(), 0);
  for (Boundary b : dirichlet)
    for (std::size_t g : d.boundary_nodes(b)) is_dirichlet_[g] = 1;
  for (std::size_t g = 0; g < is_dirichlet_.size(); ++g)
    if (is_dirichlet_[g]) dnodes_.push_back(g);

  if constexpr (Disc::kDim == 3)
    precond_ = std::make_shared<const BoxEigenbasis>(d, dirichlet);
  else
    precond_ = jacobi_diag(ops, lambda, nu, dnodes_);
}

template <class Disc>
HelmholtzSolver<Disc>::HelmholtzSolver(const HelmholtzSolver& like, double lambda, double nu)
    : ops_(like.ops_), lambda_(lambda), nu_(nu), dnodes_(like.dnodes_),
      is_dirichlet_(like.is_dirichlet_) {
  if constexpr (Disc::kDim == 3)
    precond_ = like.precond_;
  else
    precond_ = jacobi_diag(*ops_, lambda, nu, dnodes_);
}

template <class Disc>
la::CgResult HelmholtzSolver<Disc>::solve(const la::Vector& f, const BcFn& g, la::Vector& u) {
  const auto& d = ops_->disc();
  la::Vector bc(dnodes_.size());
  for (std::size_t k = 0; k < dnodes_.size(); ++k) bc[k] = eval_at(g, d.node(dnodes_[k]));
  return solve_with_values(f, bc, u);
}

template <class Disc>
la::CgResult HelmholtzSolver<Disc>::solve_with_values(const la::Vector& f,
                                                      const la::Vector& bc_values,
                                                      la::Vector& u) {
  const auto& d = ops_->disc();
  const std::size_t n = d.num_nodes();
  if (f.size() != n)
    throw std::invalid_argument("HelmholtzSolver: rhs has " + std::to_string(f.size()) +
                                " entries, discretization has " + std::to_string(n) + " nodes");
  if (bc_values.size() != dnodes_.size())
    throw std::invalid_argument("HelmholtzSolver: " + std::to_string(bc_values.size()) +
                                " Dirichlet values for " + std::to_string(dnodes_.size()) +
                                " Dirichlet nodes");
  telemetry::ScopedPhase phase("helmholtz.solve");
  telemetry::count("helmholtz.solves");
  const auto& M = ops_->mass_diag();

  // masked operator: rows and columns of constrained nodes removed
  la::Vector tmp_in(n), tmp_out(n);
  la::LinearOperator op = [&](const double* x, double* y) {
    for (std::size_t gi = 0; gi < n; ++gi) tmp_in[gi] = is_dirichlet_[gi] ? 0.0 : x[gi];
    ops_->apply_helmholtz(lambda_, nu_, tmp_in, tmp_out);
    for (std::size_t gi = 0; gi < n; ++gi) y[gi] = is_dirichlet_[gi] ? x[gi] : tmp_out[gi];
  };

  // its preconditioner, the identity on the constrained rows like the operator
  la::Vector work;
  la::Preconditioner precond;
  if constexpr (Disc::kDim == 3) {
    work.resize(2 * n);
    precond = [&](const double* r, double* z, std::size_t) {
      precond_->solve(lambda_, nu_, r, z, work.data());
      for (std::size_t g : dnodes_) z[g] = r[g];
    };
  } else {
    precond = la::jacobi_preconditioner(precond_);
  }

  // rhs: M f, lifted by the Dirichlet extension
  la::Vector b(n);
  for (std::size_t gi = 0; gi < n; ++gi) b[gi] = M[gi] * f[gi];

  la::Vector lift(n, 0.0);
  if (!dnodes_.empty()) {
    for (std::size_t k = 0; k < dnodes_.size(); ++k) lift[dnodes_[k]] = bc_values[k];
    la::Vector Alift(n);
    ops_->apply_helmholtz(lambda_, nu_, lift, Alift);
    for (std::size_t gi = 0; gi < n; ++gi) b[gi] -= Alift[gi];
  }
  for (std::size_t gi = 0; gi < n; ++gi)
    if (is_dirichlet_[gi]) b[gi] = 0.0;

  if (pure_neumann() && lambda_ == 0.0) {
    // Singular operator with constant nullspace: make the rhs consistent.
    double sum_b = 0.0, sum_m = 0.0;
    for (std::size_t gi = 0; gi < n; ++gi) {
      sum_b += b[gi];
      sum_m += M[gi];
    }
    const double shift = sum_b / sum_m;
    for (std::size_t gi = 0; gi < n; ++gi) b[gi] -= M[gi] * shift;
  }

  // warm start from the successive-solution projector
  la::Vector u0(n, 0.0);
  if (projection_enabled_) projector_.predict(op, b, u0);
  auto res = la::cg_solve(op, b, u0, precond, opt_);
  if (projection_enabled_) projector_.record(op, u0);

  if (u.size() != n) u.resize(n);
  for (std::size_t gi = 0; gi < n; ++gi) u[gi] = u0[gi] + lift[gi];

  if (pure_neumann() && lambda_ == 0.0) {
    // remove the arbitrary constant: zero mean
    double mean_num = 0.0, mean_den = 0.0;
    for (std::size_t gi = 0; gi < n; ++gi) {
      mean_num += M[gi] * u[gi];
      mean_den += M[gi];
    }
    const double mean = mean_num / mean_den;
    for (std::size_t gi = 0; gi < n; ++gi) u[gi] -= mean;
  }
  return res;
}

template <class Disc>
void HelmholtzSolver<Disc>::save_state(resilience::BlobWriter& w) const {
  resilience::put_projector(w, projector_);
}

template <class Disc>
void HelmholtzSolver<Disc>::load_state(resilience::BlobReader& r) {
  resilience::get_projector(r, projector_);
}

template class HelmholtzSolver<Discretization>;
template class HelmholtzSolver<Discretization3D>;

}  // namespace sem
