#include "sem/helmholtz.hpp"

#include "resilience/blob_la.hpp"

#include <stdexcept>
#include <string>

#include "telemetry/registry.hpp"

namespace sem {

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

  precond_diag_ = ops.helmholtz_diag(lambda, nu);
  for (std::size_t g : dnodes_) precond_diag_[g] = 1.0;
  // Pure-Neumann Poisson: diag(K) alone can be near-singular in scale; the
  // Jacobi preconditioner still works because diag entries are positive.
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
  auto res = la::cg_solve(op, b, u0, la::jacobi_preconditioner(precond_diag_), opt_);
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
