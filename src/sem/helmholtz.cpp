#include "sem/helmholtz.hpp"

#include "resilience/blob_la.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "la/eig.hpp"
#include "la/simd.hpp"
#include "telemetry/registry.hpp"

namespace sem {

namespace {

/// Node id of each point of d's GLL lattice (axis 0 fastest), or nullopt
/// when cells are masked and the lattice has holes. 2D node ids follow
/// first sight in element order, not the lattice.
std::optional<std::vector<std::size_t>> lattice_nodes(const Discretization& d) {
  const auto& m = d.mesh();
  if (m.num_cells() != m.grid_nx() * m.grid_ny()) return std::nullopt;
  const auto P = static_cast<std::size_t>(d.order());
  const std::size_t nx = m.grid_nx() * P + 1;
  std::vector<std::size_t> node((m.grid_ny() * P + 1) * nx);
  for (std::size_t e = 0; e < d.num_elements(); ++e) {
    const auto [ci, cj] = m.cell_coords(e);
    const std::size_t* map = d.elem_map(e);
    for (std::size_t b = 0; b <= P; ++b)
      for (std::size_t a = 0; a <= P; ++a)
        node[(cj * P + b) * nx + ci * P + a] = map[b * (P + 1) + a];
  }
  return node;
}

/// 3D node ids are lattice-ordered already (hex3d.hpp): the identity, as
/// an empty map.
std::optional<std::vector<std::size_t>> lattice_nodes(const Discretization3D&) {
  return std::vector<std::size_t>{};
}

}  // namespace

class BoxEigenbasis {
public:
  /// The bases of d's lattice with the Dirichlet nodes flagged in
  /// is_dirichlet, or null unless d is unmasked and the flagged set is
  /// exactly the union of the lattice sides it covers completely.
  template <class Disc>
  static std::shared_ptr<const BoxEigenbasis> make(const Disc& d,
                                                   const std::vector<char>& is_dirichlet) {
    auto node = lattice_nodes(d);
    if (!node) return nullptr;
    constexpr std::size_t kDim = Disc::kDim;
    const auto P = static_cast<std::size_t>(d.order());
    const auto ne = d.element_counts();
    std::array<std::size_t, kDim> n;
    std::size_t size = 1;
    for (std::size_t k = 0; k < kDim; ++k) {
      n[k] = ne[k] * P + 1;
      size *= n[k];
    }
    auto dirichlet = [&](std::size_t L) {
      return is_dirichlet[node->empty() ? L : (*node)[L]] != 0;
    };
    // calls fn(2k) or fn(2k + 1) when lattice point L has index 0 or
    // n_k - 1 on axis k
    auto sides_of = [&](std::size_t L, auto&& fn) {
      for (std::size_t k = 0; k < kDim; ++k) {
        const std::size_t i = L % n[k];
        L /= n[k];
        if (i == 0) fn(2 * k);
        if (i == n[k] - 1) fn(2 * k + 1);
      }
    };
    std::array<bool, 2 * kDim> fixed;  // every point of the side is Dirichlet
    fixed.fill(true);
    for (std::size_t L = 0; L < size; ++L)
      if (!dirichlet(L)) sides_of(L, [&](std::size_t s) { fixed[s] = false; });
    for (std::size_t L = 0; L < size; ++L) {
      bool covered = false;
      sides_of(L, [&](std::size_t s) { covered = covered || fixed[s]; });
      if (covered != dirichlet(L)) return nullptr;
    }

    auto basis = std::make_shared<BoxEigenbasis>();
    for (std::size_t k = 0; k < kDim; ++k)
      basis->ax_.push_back(axis_basis(d.rule().weights, d.diff_matrix(), P, ne[k],
                                      d.element_size()[k], fixed[2 * k], fixed[2 * k + 1]));
    basis->node_ = std::move(*node);
    basis->size_ = size;
    return basis;
  }

  /// Doubles of scratch solve() needs.
  std::size_t work_size() const { return (node_.empty() ? 2 : 3) * size_; }

  /// z = A^{-1} r on the free nodes and 0 on the Dirichlet nodes, for
  /// A = lambda M + nu K masked to the free nodes. The constant mode of a
  /// singular (pure-Neumann, lambda = 0) operator maps to 0.
  void solve(double lambda, double nu, const double* r, double* z, double* work) const {
    double* t = work;
    double* s = work + size_;
    double* lat = work + 2 * size_;  // r, then z, in lattice order
    const bool mapped = !node_.empty();
    if (mapped)
      for (std::size_t L = 0; L < size_; ++L) lat[L] = r[node_[L]];
    transform(true, mapped ? lat : r, t, s);  // t = S^T r

    // t /= lambda + nu sum_k mu_k, one axis-0 line at a time
    const std::size_t n0 = ax_[0].S.rows();
    const double* mu0 = ax_[0].mu.data();
    for (std::size_t line = 0; line < size_ / n0; ++line) {
      std::array<std::size_t, 3> i{};  // the line's index on axes 1..
      std::size_t q = line;
      for (std::size_t k = 1; k < ax_.size(); ++k) {
        i[k] = q % ax_[k].S.rows();
        q /= ax_[k].S.rows();
      }
      double mu = 0.0;
      for (std::size_t k = ax_.size(); k-- > 1;) mu += ax_[k].mu[i[k]];
      const double base = lambda + nu * mu;
      double* l = t + line * n0;
      for (std::size_t j = 0; j < n0; ++j) {
        const double den = base + nu * mu0[j];
        l[j] = den == 0.0 ? 0.0 : l[j] / den;
      }
    }

    transform(false, t, mapped ? lat : z, s);  // z = S t
    if (mapped)
      for (std::size_t L = 0; L < size_; ++L) z[node_[L]] = lat[L];
  }

private:
  /// One axis of n lattice indices. S is n x n with zero rows and columns
  /// at Dirichlet ends; on the free indices S^T M S = I and S^T K S =
  /// diag(mu) for the assembled 1D GLL mass M and stiffness K.
  struct Axis {
    la::DenseMatrix S, ST;
    std::vector<double> mu;
  };

  static Axis axis_basis(const la::Vector& w, const la::DenseMatrix& D, std::size_t P,
                         std::size_t ne, double h, bool lo_dirichlet, bool hi_dirichlet) {
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

  /// out = (S_{d-1} (x) ... (x) S_0)^T in when transposed, else without
  /// the transpose. One pass per axis, laid out like Operators::elem_axes:
  /// axis 0 along the contiguous lines, axis k on blocks of n_k rows of
  /// the lower axes' points. The passes alternate between out and scratch
  /// and end in out; in is only read.
  void transform(bool transposed, const double* in, double* out, double* scratch) const {
    const std::size_t n0 = ax_[0].S.rows();
    double* dst = ax_.size() % 2 ? out : scratch;
    // a line times S is S^T applied along the line
    la::simd::gemm(in, (transposed ? ax_[0].S : ax_[0].ST).data(), dst, size_ / n0, n0, n0);
    std::size_t stride = n0;
    for (std::size_t k = 1; k < ax_.size(); ++k) {
      const double* src = dst;
      dst = dst == out ? scratch : out;
      const std::size_t nk = ax_[k].S.rows();
      const double* A = (transposed ? ax_[k].ST : ax_[k].S).data();
      for (std::size_t blk = 0; blk < size_; blk += nk * stride)
        la::simd::gemm(A, src + blk, dst + blk, nk, nk, stride);
      stride *= nk;
    }
  }

  std::vector<Axis> ax_;           // axis 0 fastest
  std::vector<std::size_t> node_;  // lattice point -> node id; empty: the identity
  std::size_t size_ = 0;           // lattice points
};

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
  basis_ = BoxEigenbasis::make(d, is_dirichlet_);
  allocate();
}

template <class Disc>
HelmholtzSolver<Disc>::HelmholtzSolver(const HelmholtzSolver& like, double lambda, double nu)
    : ops_(like.ops_), lambda_(lambda), nu_(nu), dnodes_(like.dnodes_),
      is_dirichlet_(like.is_dirichlet_), basis_(like.basis_) {
  allocate();
}

template <class Disc>
void HelmholtzSolver<Disc>::allocate() {
  const std::size_t n = ops_->disc().num_nodes();
  if (!basis_) {
    jacobi_ = ops_->helmholtz_diag(lambda_, nu_);
    for (std::size_t g : dnodes_) jacobi_[g] = 1.0;
  }
  for (la::Vector* v : {&tmp_in_, &tmp_out_, &b_}) v->resize(n);
  work_.resize(basis_ ? basis_->work_size() : 0);
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
  const std::size_t n = ops_->disc().num_nodes();
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
  const la::LinearOperator op = [this, n](const double* x, double* y) {
    for (std::size_t gi = 0; gi < n; ++gi) tmp_in_[gi] = is_dirichlet_[gi] ? 0.0 : x[gi];
    ops_->apply_helmholtz(lambda_, nu_, tmp_in_, tmp_out_);
    for (std::size_t gi = 0; gi < n; ++gi) y[gi] = is_dirichlet_[gi] ? x[gi] : tmp_out_[gi];
  };

  // its preconditioner, the identity on the constrained rows like the operator
  la::Preconditioner precond;
  if (basis_)
    precond = [this](const double* r, double* z, std::size_t) {
      basis_->solve(lambda_, nu_, r, z, work_.data());
      for (std::size_t g : dnodes_) z[g] = r[g];
    };
  else
    precond = la::jacobi_preconditioner(jacobi_);

  // rhs: M f, lifted by the Dirichlet extension (the lift and its image
  // go through the operator's scratch); a zero lift has a zero image
  for (std::size_t gi = 0; gi < n; ++gi) b_[gi] = M[gi] * f[gi];
  if (std::any_of(bc_values.begin(), bc_values.end(), [](double v) { return v != 0.0; })) {
    tmp_in_.fill(0.0);
    for (std::size_t k = 0; k < dnodes_.size(); ++k) tmp_in_[dnodes_[k]] = bc_values[k];
    ops_->apply_helmholtz(lambda_, nu_, tmp_in_, tmp_out_);
    for (std::size_t gi = 0; gi < n; ++gi) b_[gi] -= tmp_out_[gi];
  }
  for (std::size_t gi = 0; gi < n; ++gi)
    if (is_dirichlet_[gi]) b_[gi] = 0.0;

  if (pure_neumann() && lambda_ == 0.0) {
    // Singular operator with constant nullspace: make the rhs consistent.
    double sum_b = 0.0, sum_m = 0.0;
    for (std::size_t gi = 0; gi < n; ++gi) {
      sum_b += b_[gi];
      sum_m += M[gi];
    }
    const double shift = sum_b / sum_m;
    for (std::size_t gi = 0; gi < n; ++gi) b_[gi] -= M[gi] * shift;
  }

  // u is the CG iterate. A box mesh starts at the exact inverse's answer,
  // so CG only checks it against the tolerance; Jacobi starts from the
  // successive-solution projector's prediction.
  if (u.size() != n) u.resize(n);
  if (basis_)
    basis_->solve(lambda_, nu_, b_.data(), u.data(), work_.data());
  else
    projector_.predict(op, b_, u);
  auto res = la::cg_solve(op, b_, u, precond, opt_);
  if (!basis_) projector_.record(op, u);
  // add the lift back; it is zero off the Dirichlet nodes
  for (std::size_t k = 0; k < dnodes_.size(); ++k) u[dnodes_[k]] += bc_values[k];

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
