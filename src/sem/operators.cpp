#include "sem/operators.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "la/simd.hpp"
#include "sem/split.hpp"
#include "telemetry/registry.hpp"

namespace sem {

namespace {

/// Local index along each axis of local node q (axis 0 fastest).
template <std::size_t D>
std::array<std::size_t, D> local_index(std::size_t q, std::size_t n1) {
  std::array<std::size_t, D> i{};
  for (std::size_t k = 0; k < D; ++k, q /= n1) i[k] = q % n1;
  return i;
}

}  // namespace

template <class Disc>
Operators<Disc>::Operators(const Disc& d) : d_(&d) {
  const auto h = d.element_size();
  jac_ = 1.0 / (1 << kDim);
  for (std::size_t k = 0; k < kDim; ++k) {
    jac_ *= h[k];
    r_[k] = 2.0 / h[k];
  }

  const auto& w = d.rule().weights;
  const std::size_t n1 = static_cast<std::size_t>(d.order()) + 1;

  // G = D^T diag(w) D, the 1D weak derivative kernel
  G_ = la::DenseMatrix(n1, n1);
  const auto& D = d.diff_matrix();
  for (std::size_t a = 0; a < n1; ++a)
    for (std::size_t b = 0; b < n1; ++b) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += D(m, a) * w[m] * D(m, b);
      G_(a, b) = s;
    }

  // tables first, so the build's one temporary (lstiff) is the
  // last allocation and freeing it leaves no hole between long-lived blocks
  // (that hole measurably raised the peak RSS of coupled 3D runs)
  const std::size_t npe = d.nodes_per_element();
  mass_.resize(d.num_nodes(), 0.0);
  stiff_diag_.resize(d.num_nodes(), 0.0);
  GT_ = G_.transposed();
  DT_ = D.transposed();
  wt_.assign(npe / n1, 1.0);
  for (std::size_t q = 0; q < wt_.size(); ++q)
    for (std::size_t i : local_index<kDim - 1>(q, n1)) wt_[q] *= w[i];
  lmass_.resize(npe);

  // per local node: lumped mass jac * prod_k w_k and diag(K) =
  // jac * sum_k r_k^2 (prod_{j != k} w_j) G(i_k, i_k); assembled per element
  std::vector<double> lstiff(npe);
  for (std::size_t q = 0; q < npe; ++q) {
    const auto i = local_index<kDim>(q, n1);
    double m = jac_;
    double s = 0.0;
    for (std::size_t k = 0; k < kDim; ++k) {
      m *= w[i[k]];
      double t = r_[k] * r_[k];
      for (std::size_t j = 0; j < kDim; ++j)
        if (j != k) t *= w[i[j]];
      t *= G_(i[k], i[k]);
      s = k == 0 ? t : s + t;
    }
    lmass_[q] = m;
    lstiff[q] = jac_ * s;
  }
  for (std::size_t e = 0; e < d.num_elements(); ++e) {
    d.scatter_add(lmass_.data(), e, mass_);
    d.scatter_add(lstiff.data(), e, stiff_diag_);
  }
}

template <class Disc>
void Operators<Disc>::elem_axes(const la::DenseMatrix& M, const la::DenseMatrix& MT,
                                bool weighted, const std::array<double, kDim>& coef,
                                const double* u, const std::array<double*, kDim>& out) const {
  const std::size_t n1 = static_cast<std::size_t>(d_->order()) + 1;
  const std::size_t lines = wt_.size();  // n1^(d-1)
  const double* wt = weighted ? wt_.data() : nullptr;
  // axis 0: every line of the element in one batched call, row scale wt
  la::simd::lines_apply_t(MT.data(), n1, lines, u, out[0], wt, coef[0]);
  if constexpr (kDim == 3) {
    // axis 1: per axis-2 plane, M across the rows, column scale w_a
    const double* w = weighted ? d_->rule().weights.data() : nullptr;
    for (std::size_t c = 0; c < n1; ++c)
      la::simd::lines_apply(M.data(), n1, n1, u + c * n1 * n1, out[1] + c * n1 * n1, w,
                            w ? coef[1] * w[c] : coef[1]);
  }
  // last axis: the element as one plane of n1^(d-1) columns, column scale wt
  la::simd::lines_apply(M.data(), n1, lines, u, out[kDim - 1], wt, coef[kDim - 1]);
}

template <class Disc>
void Operators<Disc>::elem_stiffness(double nu, const double* u, double* y) const {
  std::array<double, kDim> coef;
  for (std::size_t k = 0; k < kDim; ++k) coef[k] = nu * jac_ * r_[k] * r_[k];
  std::fill(y, y + lmass_.size(), 0.0);
  std::array<double*, kDim> out;
  out.fill(y);
  elem_axes(G_, GT_, true, coef, u, out);
}

template <class Disc>
int Operators<Disc>::stage_lanes() const {
  const int want = split_lanes(d_->num_nodes());
  const std::size_t npe = lmass_.size();
  if (stage_.empty()) stage_.resize(d_->num_elements() * kDim * npe);
  if (lane_u_.size() < static_cast<std::size_t>(want)) {
    lane_u_.resize(static_cast<std::size_t>(want));
    for (auto& l : lane_u_) l.resize(npe);
  }
  return want;
}

template <class Disc>
template <class Kernel>
void Operators<Disc>::sweep(const la::Vector& u, la::Vector& y, Kernel&& kernel) const {
  // lanes fill the stage out of order; the scatter adds it in element order
  const std::size_t npe = lmass_.size();
  split(stage_lanes(), d_->num_elements(), [&](std::size_t lo, std::size_t hi, int lane) {
    double* lu = lane_u_[static_cast<std::size_t>(lane)].data();
    for (std::size_t e = lo; e < hi; ++e) {
      d_->gather(u, e, lu);
      kernel(lu, stage_.data() + e * npe);
    }
  });
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  for (std::size_t e = 0; e < d_->num_elements(); ++e)
    d_->scatter_add(stage_.data() + e * npe, e, y);
}

template <class Disc>
void Operators<Disc>::apply_stiffness(const la::Vector& u, la::Vector& y) const {
  telemetry::count("sem.apply.stiffness");
  sweep(u, y, [this](const double* lu, double* ly) { elem_stiffness(1.0, lu, ly); });
}

template <class Disc>
void Operators<Disc>::apply_helmholtz(double lambda, double nu, const la::Vector& u,
                                      la::Vector& y) const {
  telemetry::count("sem.apply.helmholtz");
  sweep(u, y, [&](const double* lu, double* ly) {
    elem_stiffness(nu, lu, ly);
    // lumped mass term folded into the element pass (sums to lambda*M*u)
    for (std::size_t q = 0; q < lmass_.size(); ++q) ly[q] += lambda * lmass_[q] * lu[q];
  });
}

template <class Disc>
la::Vector Operators<Disc>::helmholtz_diag(double lambda, double nu) const {
  la::Vector dgl(d_->num_nodes());
  for (std::size_t g = 0; g < dgl.size(); ++g)
    dgl[g] = lambda * mass_[g] + nu * stiff_diag_[g];
  return dgl;
}

template <class Disc>
void Operators<Disc>::gradient(const la::Vector& u, Fields& grad) const {
  const std::size_t n = d_->num_nodes();
  const std::size_t npe = lmass_.size();
  // element e's kDim local derivatives sit side by side in the stage
  split(stage_lanes(), d_->num_elements(), [&](std::size_t lo, std::size_t hi, int lane) {
    double* lu = lane_u_[static_cast<std::size_t>(lane)].data();
    for (std::size_t e = lo; e < hi; ++e) {
      d_->gather(u, e, lu);
      double* ld = stage_.data() + e * kDim * npe;
      std::fill(ld, ld + kDim * npe, 0.0);
      std::array<double*, kDim> out;
      for (std::size_t k = 0; k < kDim; ++k) out[k] = ld + k * npe;
      elem_axes(d_->diff_matrix(), DT_, false, r_, lu, out);
      // weight by the local mass before scatter; divide by assembled mass after
      for (std::size_t k = 0; k < kDim; ++k)
        for (std::size_t q = 0; q < npe; ++q) out[k][q] *= lmass_[q];
    }
  });
  for (std::size_t k = 0; k < kDim; ++k)
    if (grad[k].size() != n) grad[k].resize(n);
  // each component sums its elements in element order, on a lane of its own
  split(split_lanes(n), kDim, [&](std::size_t lo, std::size_t hi, int) {
    for (std::size_t k = lo; k < hi; ++k) {
      grad[k].fill(0.0);
      for (std::size_t e = 0; e < d_->num_elements(); ++e)
        d_->scatter_add(stage_.data() + (e * kDim + k) * npe, e, grad[k]);
      double* gk = grad[k].data();
      const double* m = mass_.data();
      for (std::size_t g = 0; g < n; ++g) gk[g] /= m[g];
    }
  });
}

template <class Disc>
void Operators<Disc>::divergence(const Fields& u, la::Vector& div) const {
  const std::size_t n = u[0].size();
  if (div.size() != n) div.resize(n);
  for (std::size_t k = 0; k < kDim; ++k) {
    gradient(u[k], grad_);
    const la::Vector& dk = grad_[k];
    for (std::size_t g = 0; g < n; ++g) div[g] = k == 0 ? dk[g] : div[g] + dk[g];
  }
}

template <class Disc>
void Operators<Disc>::convection(const Fields& u, Fields& conv) const {
  const std::size_t n = u[0].size();
  for (auto& cc : conv)
    if (cc.size() != n) cc.resize(n);
  for (std::size_t c = 0; c < kDim; ++c) {
    gradient(u[c], grad_);
    for (std::size_t g = 0; g < n; ++g) {
      double s = u[0][g] * grad_[0][g];
      for (std::size_t k = 1; k < kDim; ++k) s += u[k][g] * grad_[k][g];
      conv[c][g] = s;
    }
  }
}

template <class Disc>
std::vector<double> Operators<Disc>::wall_shear_stress(const la::Vector& u, const la::Vector& v,
                                                       double nu, int tag) const
  requires(kDim == 2)
{
  const auto& d = *d_;
  const int P = d.order();

  // face orientation per boundary node of the tag: inward normal (nx, ny)
  // and which velocity component is tangential (0 = u, 1 = v)
  struct FaceInfo {
    double nx, ny;
    int tangential;
  };
  std::map<std::size_t, FaceInfo> info;
  for (const auto& face : d.mesh().boundary_faces()) {
    if (face.tag != tag) continue;
    FaceInfo fi{};
    switch (face.side) {
      case mesh::Side::South: fi = {0.0, 1.0, 0}; break;
      case mesh::Side::North: fi = {0.0, -1.0, 0}; break;
      case mesh::Side::West: fi = {1.0, 0.0, 1}; break;
      case mesh::Side::East: fi = {-1.0, 0.0, 1}; break;
    }
    for (int k = 0; k <= P; ++k) {
      int a = 0, b = 0;
      switch (face.side) {
        case mesh::Side::South: a = k; b = 0; break;
        case mesh::Side::North: a = k; b = P; break;
        case mesh::Side::West: a = 0; b = k; break;
        case mesh::Side::East: a = P; b = k; break;
      }
      info[d.global_node(face.cell, a, b)] = fi;
    }
  }

  // nodal gradient of each tangential component in turn (mass-averaged, as
  // in gradient()), read at the nodes where that component is tangential
  const auto& nodes = d.boundary_nodes(tag);
  std::vector<double> tau(nodes.size(), 0.0);
  for (int c = 0; c < 2; ++c) {
    gradient(c == 0 ? u : v, grad_);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const auto it = info.find(nodes[k]);
      if (it == info.end() || it->second.tangential != c) continue;
      const FaceInfo& fi = it->second;
      const std::size_t g = nodes[k];
      tau[k] = nu * (fi.nx * grad_[0][g] + fi.ny * grad_[1][g]);
    }
  }
  return tau;
}

template <class Disc>
double Operators<Disc>::integral(const la::Vector& u) const {
  double s = 0.0;
  for (std::size_t g = 0; g < u.size(); ++g) s += mass_[g] * u[g];
  return s;
}

template class Operators<Discretization>;
template class Operators<Discretization3D>;

}  // namespace sem
