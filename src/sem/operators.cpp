#include "sem/operators.hpp"

#include <cmath>
#include <map>
#include <vector>

#include "la/simd.hpp"
#include "telemetry/registry.hpp"

namespace sem {

Operators::Operators(const Discretization& d) : d_(&d) {
  const auto& mesh = d.mesh();
  jac_ = 0.25 * mesh.dx() * mesh.dy();
  rx_ = 2.0 / mesh.dx();
  ry_ = 2.0 / mesh.dy();

  const int P = d.order();
  const auto& w = d.rule().weights;
  const std::size_t n1 = static_cast<std::size_t>(P) + 1;

  // G = D^T diag(w) D, the 1D weak derivative kernel
  G_ = la::DenseMatrix(n1, n1);
  const auto& D = d.diff_matrix();
  for (std::size_t a = 0; a < n1; ++a)
    for (std::size_t b = 0; b < n1; ++b) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += D(m, a) * w[m] * D(m, b);
      G_(a, b) = s;
    }

  // assembled diagonal mass and stiffness
  mass_.resize(d.num_nodes(), 0.0);
  stiff_diag_.resize(d.num_nodes(), 0.0);
  for (std::size_t e = 0; e < d.num_elements(); ++e) {
    for (int b = 0; b <= P; ++b)
      for (int a = 0; a <= P; ++a) {
        const std::size_t g = d.global_node(e, a, b);
        const double wa = w[static_cast<std::size_t>(a)];
        const double wb = w[static_cast<std::size_t>(b)];
        mass_[g] += jac_ * wa * wb;
        stiff_diag_[g] += jac_ * (rx_ * rx_ * wb * G_(static_cast<std::size_t>(a),
                                                      static_cast<std::size_t>(a)) +
                                  ry_ * ry_ * wa * G_(static_cast<std::size_t>(b),
                                                      static_cast<std::size_t>(b)));
      }
  }

  // fast-path tables and scratch
  GT_ = G_.transposed();
  DT_ = D.transposed();
  const std::size_t npe = d.nodes_per_element();
  lmass_.resize(npe);
  for (std::size_t b = 0; b < n1; ++b)
    for (std::size_t a = 0; a < n1; ++a) lmass_[b * n1 + a] = jac_ * w[a] * w[b];
  lu_.resize(npe);
  ly_.resize(npe);
  ldx_.resize(npe);
  ldy_.resize(npe);
}

void Operators::elem_stiffness(const double* u, double* y) const {
  const std::size_t n1 = static_cast<std::size_t>(d_->order()) + 1;
  const auto& w = d_->rule().weights;
  const double cx = jac_ * rx_ * rx_;
  const double cy = jac_ * ry_ * ry_;
  for (std::size_t k = 0; k < n1 * n1; ++k) y[k] = 0.0;
  // x: all rows in one batched call, row scale w_j; y: G down the columns,
  // column scale w_i
  la::simd::lines_apply_t(GT_.data(), n1, n1, u, y, w.data(), cx);
  la::simd::lines_apply(G_.data(), n1, n1, u, y, w.data(), cy);
}

void Operators::elem_helmholtz(double lambda, double nu, const double* u, double* y) const {
  const std::size_t n1 = static_cast<std::size_t>(d_->order()) + 1;
  const auto& w = d_->rule().weights;
  const double cx = nu * jac_ * rx_ * rx_;
  const double cy = nu * jac_ * ry_ * ry_;
  const std::size_t npe = n1 * n1;
  for (std::size_t k = 0; k < npe; ++k) y[k] = 0.0;
  la::simd::lines_apply_t(GT_.data(), n1, n1, u, y, w.data(), cx);
  la::simd::lines_apply(G_.data(), n1, n1, u, y, w.data(), cy);
  // lumped mass term folded into the element pass (sums to lambda*M*u)
  for (std::size_t k = 0; k < npe; ++k) y[k] += lambda * lmass_[k] * u[k];
}

void Operators::elem_deriv_x(const double* u, double* dudx) const {
  const std::size_t n1 = static_cast<std::size_t>(d_->order()) + 1;
  for (std::size_t k = 0; k < n1 * n1; ++k) dudx[k] = 0.0;
  la::simd::lines_apply_t(DT_.data(), n1, n1, u, dudx, nullptr, rx_);
}

void Operators::elem_deriv_y(const double* u, double* dudy) const {
  const std::size_t n1 = static_cast<std::size_t>(d_->order()) + 1;
  for (std::size_t k = 0; k < n1 * n1; ++k) dudy[k] = 0.0;
  la::simd::lines_apply(d_->diff_matrix().data(), n1, n1, u, dudy, nullptr, ry_);
}

void Operators::apply_stiffness(const la::Vector& u, la::Vector& y) const {
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  telemetry::count("sem.apply.stiffness2d");
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_stiffness(lu_.data(), ly_.data());
    d_->scatter_add(ly_.data(), e, y);
  }
}

void Operators::apply_helmholtz(double lambda, double nu, const la::Vector& u,
                                la::Vector& y) const {
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  telemetry::count("sem.apply.helmholtz2d");
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_helmholtz(lambda, nu, lu_.data(), ly_.data());
    d_->scatter_add(ly_.data(), e, y);
  }
}

la::Vector Operators::helmholtz_diag(double lambda, double nu) const {
  la::Vector dgl(d_->num_nodes());
  for (std::size_t g = 0; g < dgl.size(); ++g)
    dgl[g] = lambda * mass_[g] + nu * stiff_diag_[g];
  return dgl;
}

void Operators::gradient(const la::Vector& u, la::Vector& dudx, la::Vector& dudy) const {
  const std::size_t n = d_->num_nodes();
  const std::size_t npe = d_->nodes_per_element();
  if (dudx.size() != n) dudx.resize(n);
  if (dudy.size() != n) dudy.resize(n);
  dudx.fill(0.0);
  dudy.fill(0.0);
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_deriv_x(lu_.data(), ldx_.data());
    elem_deriv_y(lu_.data(), ldy_.data());
    // weight by the local mass before scatter; divide by assembled mass after
    for (std::size_t k = 0; k < npe; ++k) {
      const double m = lmass_[k];
      ldx_[k] *= m;
      ldy_[k] *= m;
    }
    d_->scatter_add(ldx_.data(), e, dudx);
    d_->scatter_add(ldy_.data(), e, dudy);
  }
  for (std::size_t g = 0; g < n; ++g) {
    dudx[g] /= mass_[g];
    dudy[g] /= mass_[g];
  }
}

void Operators::divergence(const la::Vector& u, const la::Vector& v, la::Vector& div) const {
  if (div.size() != u.size()) div.resize(u.size());
  gradient(u, gx_, gy_);
  for (std::size_t g = 0; g < u.size(); ++g) div[g] = gx_[g];
  gradient(v, gx_, gy_);
  for (std::size_t g = 0; g < u.size(); ++g) div[g] += gy_[g];
}

void Operators::convection(const la::Vector& u, const la::Vector& v, la::Vector& conv_u,
                           la::Vector& conv_v) const {
  gradient(u, gx_, gy_);
  gradient(v, hx_, hy_);
  if (conv_u.size() != u.size()) conv_u.resize(u.size());
  if (conv_v.size() != u.size()) conv_v.resize(u.size());
  for (std::size_t g = 0; g < u.size(); ++g) {
    conv_u[g] = u[g] * gx_[g] + v[g] * gy_[g];
    conv_v[g] = u[g] * hx_[g] + v[g] * hy_[g];
  }
}

std::vector<double> Operators::wall_shear_stress(const la::Vector& u, const la::Vector& v,
                                                 double nu, int tag) const {
  const auto& d = *d_;
  const int P = d.order();

  // nodal gradients of both components (mass-averaged, as in gradient())
  gradient(u, gx_, gy_);
  gradient(v, hx_, hy_);
  const la::Vector &dudx = gx_, &dudy = gy_, &dvdx = hx_, &dvdy = hy_;

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

  const auto& nodes = d.boundary_nodes(tag);
  std::vector<double> tau(nodes.size(), 0.0);
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const auto it = info.find(nodes[k]);
    if (it == info.end()) continue;
    const FaceInfo& fi = it->second;
    const std::size_t g = nodes[k];
    const double dt_dx = fi.tangential == 0 ? dudx[g] : dvdx[g];
    const double dt_dy = fi.tangential == 0 ? dudy[g] : dvdy[g];
    tau[k] = nu * (fi.nx * dt_dx + fi.ny * dt_dy);
  }
  return tau;
}

double Operators::l2_norm(const la::Vector& u) const {
  double s = 0.0;
  for (std::size_t g = 0; g < u.size(); ++g) s += u[g] * mass_[g] * u[g];
  return std::sqrt(s);
}

double Operators::integral(const la::Vector& u) const {
  double s = 0.0;
  for (std::size_t g = 0; g < u.size(); ++g) s += mass_[g] * u[g];
  return s;
}

}  // namespace sem
