#include "sem/hex3d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "la/simd.hpp"
#include "telemetry/registry.hpp"

namespace sem {

Discretization3D::Discretization3D(double Lx, double Ly, double Lz, std::size_t nx,
                                   std::size_t ny, std::size_t nz, int order)
    : Lx_(Lx), Ly_(Ly), Lz_(Lz), nx_(nx), ny_(ny), nz_(nz), P_(order),
      rule_(gll_rule(order)), D_(gll_diff_matrix(rule_)) {
  if (nx == 0 || ny == 0 || nz == 0 || Lx <= 0 || Ly <= 0 || Lz <= 0 || order < 1)
    throw std::invalid_argument("Discretization3D: bad arguments");
  const auto P = static_cast<std::size_t>(order);
  lat_nx_ = nx * P + 1;
  lat_ny_ = ny * P + 1;
  lat_nz_ = nz * P + 1;
  ncoords_ = lat_nx_ * lat_ny_ * lat_nz_;

  // box face node sets
  for (std::size_t lk = 0; lk < lat_nz_; ++lk)
    for (std::size_t lj = 0; lj < lat_ny_; ++lj)
      for (std::size_t li = 0; li < lat_nx_; ++li) {
        const std::size_t g = lattice_id(li, lj, lk);
        if (li == 0) faces_[0].push_back(g);
        if (li == lat_nx_ - 1) faces_[1].push_back(g);
        if (lj == 0) faces_[2].push_back(g);
        if (lj == lat_ny_ - 1) faces_[3].push_back(g);
        if (lk == 0) faces_[4].push_back(g);
        if (lk == lat_nz_ - 1) faces_[5].push_back(g);
      }

  // element -> global gather/scatter table (a fastest), built once so the
  // operator apply loops never re-derive lattice indices
  const std::size_t npe = nodes_per_element();
  elem_map_.resize(num_elements() * npe);
  for (std::size_t e = 0; e < num_elements(); ++e) {
    std::size_t idx = e * npe;
    for (int c = 0; c <= P_; ++c)
      for (int b = 0; b <= P_; ++b)
        for (int a = 0; a <= P_; ++a) elem_map_[idx++] = lattice_node(e, a, b, c);
  }
}

std::size_t Discretization3D::lattice_id(std::size_t li, std::size_t lj, std::size_t lk) const {
  return (lk * lat_ny_ + lj) * lat_nx_ + li;
}

std::size_t Discretization3D::lattice_node(std::size_t e, int a, int b, int c) const {
  const auto P = static_cast<std::size_t>(P_);
  const std::size_t i = e % nx_;
  const std::size_t j = (e / nx_) % ny_;
  const std::size_t k = e / (nx_ * ny_);
  return lattice_id(i * P + static_cast<std::size_t>(a), j * P + static_cast<std::size_t>(b),
                    k * P + static_cast<std::size_t>(c));
}

namespace {
double lattice_coord(std::size_t l, int P, double h, const GllRule& rule, std::size_t n_elems) {
  // element index and local node along one axis; the last lattice plane
  // belongs to the last element's P-th node
  std::size_t e = l / static_cast<std::size_t>(P);
  std::size_t a = l % static_cast<std::size_t>(P);
  if (e == n_elems) {
    e = n_elems - 1;
    a = static_cast<std::size_t>(P);
  }
  return static_cast<double>(e) * h + 0.5 * (rule.nodes[a] + 1.0) * h;
}
}  // namespace

double Discretization3D::node_x(std::size_t g) const {
  return lattice_coord(g % lat_nx_, P_, dx(), rule_, nx_);
}
double Discretization3D::node_y(std::size_t g) const {
  return lattice_coord((g / lat_nx_) % lat_ny_, P_, dy(), rule_, ny_);
}
double Discretization3D::node_z(std::size_t g) const {
  return lattice_coord(g / (lat_nx_ * lat_ny_), P_, dz(), rule_, nz_);
}

double Discretization3D::evaluate(const la::Vector& field, double x, double y, double z) const {
  auto clamp_elem = [](double v, double h, std::size_t n) {
    auto e = static_cast<long>(std::floor(v / h));
    return static_cast<std::size_t>(std::clamp<long>(e, 0, static_cast<long>(n) - 1));
  };
  if (x < -1e-12 || y < -1e-12 || z < -1e-12 || x > Lx_ + 1e-12 || y > Ly_ + 1e-12 ||
      z > Lz_ + 1e-12)
    throw std::out_of_range("Discretization3D::evaluate: point outside box");
  const std::size_t i = clamp_elem(x, dx(), nx_);
  const std::size_t j = clamp_elem(y, dy(), ny_);
  const std::size_t k = clamp_elem(z, dz(), nz_);
  const std::size_t e = (k * ny_ + j) * nx_ + i;
  auto ref = [](double v, double h, std::size_t idx) {
    return std::clamp(2.0 * (v - static_cast<double>(idx) * h) / h - 1.0, -1.0, 1.0);
  };
  const la::Vector lx = lagrange_basis_at(rule_, ref(x, dx(), i));
  const la::Vector ly = lagrange_basis_at(rule_, ref(y, dy(), j));
  const la::Vector lz = lagrange_basis_at(rule_, ref(z, dz(), k));
  double s = 0.0;
  for (int c = 0; c <= P_; ++c) {
    double sc = 0.0;
    for (int b = 0; b <= P_; ++b) {
      double sb = 0.0;
      for (int a = 0; a <= P_; ++a)
        sb += lx[static_cast<std::size_t>(a)] * field[global_node(e, a, b, c)];
      sc += ly[static_cast<std::size_t>(b)] * sb;
    }
    s += lz[static_cast<std::size_t>(c)] * sc;
  }
  return s;
}

void Discretization3D::gather(const la::Vector& field, std::size_t e, double* local) const {
  const std::size_t npe = nodes_per_element();
  const std::size_t* map = elem_map_.data() + e * npe;
  for (std::size_t k = 0; k < npe; ++k) local[k] = field[map[k]];
}

void Discretization3D::scatter_add(const double* local, std::size_t e, la::Vector& field) const {
  const std::size_t npe = nodes_per_element();
  const std::size_t* map = elem_map_.data() + e * npe;
  for (std::size_t k = 0; k < npe; ++k) field[map[k]] += local[k];
}

// ---------------------------------------------------------------------------

Operators3D::Operators3D(const Discretization3D& d) : d_(&d) {
  jac_ = 0.125 * d.dx() * d.dy() * d.dz();
  rx_ = 2.0 / d.dx();
  ry_ = 2.0 / d.dy();
  rz_ = 2.0 / d.dz();

  const int P = d.order();
  const auto& w = d.rule().weights;
  const auto n1 = static_cast<std::size_t>(P) + 1;
  G_ = la::DenseMatrix(n1, n1);
  const auto& D = d.diff_matrix();
  for (std::size_t a = 0; a < n1; ++a)
    for (std::size_t b = 0; b < n1; ++b) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += D(m, a) * w[m] * D(m, b);
      G_(a, b) = s;
    }

  mass_.resize(d.num_nodes(), 0.0);
  stiff_diag_.resize(d.num_nodes(), 0.0);
  for (std::size_t e = 0; e < d.num_elements(); ++e)
    for (int c = 0; c <= P; ++c)
      for (int b = 0; b <= P; ++b)
        for (int a = 0; a <= P; ++a) {
          const std::size_t g = d.global_node(e, a, b, c);
          const double wa = w[static_cast<std::size_t>(a)];
          const double wb = w[static_cast<std::size_t>(b)];
          const double wc = w[static_cast<std::size_t>(c)];
          mass_[g] += jac_ * wa * wb * wc;
          stiff_diag_[g] +=
              jac_ * (rx_ * rx_ * wb * wc * G_(static_cast<std::size_t>(a), static_cast<std::size_t>(a)) +
                      ry_ * ry_ * wa * wc * G_(static_cast<std::size_t>(b), static_cast<std::size_t>(b)) +
                      rz_ * rz_ * wa * wb * G_(static_cast<std::size_t>(c), static_cast<std::size_t>(c)));
        }

  // fast-path tables and scratch
  GT_ = G_.transposed();
  DT_ = D.transposed();
  ww_.resize(n1 * n1);
  for (std::size_t j = 0; j < n1; ++j)
    for (std::size_t i = 0; i < n1; ++i) ww_[j * n1 + i] = w[i] * w[j];
  const std::size_t npe = d.nodes_per_element();
  lmass_.resize(npe);
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t b = 0; b < n1; ++b)
      for (std::size_t a = 0; a < n1; ++a)
        lmass_[(c * n1 + b) * n1 + a] = jac_ * w[a] * w[b] * w[c];
  lu_.resize(npe);
  ly_.resize(npe);
  ldx_.resize(npe);
  ldy_.resize(npe);
  ldz_.resize(npe);
}

void Operators3D::elem_stiffness(const double* u, double* y) const {
  const auto n1 = static_cast<std::size_t>(d_->order()) + 1;
  const auto& w = d_->rule().weights;
  const double cx = jac_ * rx_ * rx_;
  const double cy = jac_ * ry_ * ry_;
  const double cz = jac_ * rz_ * rz_;
  const std::size_t npe = n1 * n1 * n1;
  for (std::size_t q = 0; q < npe; ++q) y[q] = 0.0;
  // x: every (b,c) line of the element in one batched call, row scale wb*wc
  la::simd::lines_apply_t(GT_.data(), n1, n1 * n1, u, y, ww_.data(), cx);
  // y: per c-plane, G across the b rows, column scale wa
  for (std::size_t c = 0; c < n1; ++c)
    la::simd::lines_apply(G_.data(), n1, n1, u + c * n1 * n1, y + c * n1 * n1, w.data(),
                          cy * w[c]);
  // z: whole element as one plane of n1^2 columns, column scale wa*wb
  la::simd::lines_apply(G_.data(), n1, n1 * n1, u, y, ww_.data(), cz);
}

void Operators3D::elem_helmholtz(double lambda, double nu, const double* u, double* y) const {
  const auto n1 = static_cast<std::size_t>(d_->order()) + 1;
  const auto& w = d_->rule().weights;
  const double cx = nu * jac_ * rx_ * rx_;
  const double cy = nu * jac_ * ry_ * ry_;
  const double cz = nu * jac_ * rz_ * rz_;
  const std::size_t npe = n1 * n1 * n1;
  for (std::size_t q = 0; q < npe; ++q) y[q] = 0.0;
  la::simd::lines_apply_t(GT_.data(), n1, n1 * n1, u, y, ww_.data(), cx);
  for (std::size_t c = 0; c < n1; ++c)
    la::simd::lines_apply(G_.data(), n1, n1, u + c * n1 * n1, y + c * n1 * n1, w.data(),
                          cy * w[c]);
  la::simd::lines_apply(G_.data(), n1, n1 * n1, u, y, ww_.data(), cz);
  // lumped mass term folded into the element pass (sums to lambda*M*u)
  for (std::size_t q = 0; q < npe; ++q) y[q] += lambda * lmass_[q] * u[q];
}

void Operators3D::apply_stiffness(const la::Vector& u, la::Vector& y) const {
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  telemetry::count("sem.apply.stiffness");
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_stiffness(lu_.data(), ly_.data());
    d_->scatter_add(ly_.data(), e, y);
  }
}

void Operators3D::apply_helmholtz(double lambda, double nu, const la::Vector& u,
                                  la::Vector& y) const {
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  telemetry::count("sem.apply.helmholtz");
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_helmholtz(lambda, nu, lu_.data(), ly_.data());
    d_->scatter_add(ly_.data(), e, y);
  }
}

la::Vector Operators3D::helmholtz_diag(double lambda, double nu) const {
  la::Vector dg(d_->num_nodes());
  for (std::size_t g = 0; g < dg.size(); ++g) dg[g] = lambda * mass_[g] + nu * stiff_diag_[g];
  return dg;
}

void Operators3D::elem_derivs(const double* u, double* dx, double* dy, double* dz) const {
  const auto n1 = static_cast<std::size_t>(d_->order()) + 1;
  const auto& D = d_->diff_matrix();
  const std::size_t npe = n1 * n1 * n1;
  for (std::size_t q = 0; q < npe; ++q) dx[q] = dy[q] = dz[q] = 0.0;
  la::simd::lines_apply_t(DT_.data(), n1, n1 * n1, u, dx, nullptr, rx_);
  for (std::size_t c = 0; c < n1; ++c)
    la::simd::lines_apply(D.data(), n1, n1, u + c * n1 * n1, dy + c * n1 * n1, nullptr, ry_);
  la::simd::lines_apply(D.data(), n1, n1 * n1, u, dz, nullptr, rz_);
}

void Operators3D::gradient(const la::Vector& u, la::Vector& ddx, la::Vector& ddy,
                           la::Vector& ddz) const {
  const std::size_t n = d_->num_nodes();
  const std::size_t npe = d_->nodes_per_element();
  for (la::Vector* v : {&ddx, &ddy, &ddz}) {
    if (v->size() != n) v->resize(n);
    v->fill(0.0);
  }
  for (std::size_t e = 0; e < d_->num_elements(); ++e) {
    d_->gather(u, e, lu_.data());
    elem_derivs(lu_.data(), ldx_.data(), ldy_.data(), ldz_.data());
    for (std::size_t k = 0; k < npe; ++k) {
      const double m = lmass_[k];
      ldx_[k] *= m;
      ldy_[k] *= m;
      ldz_[k] *= m;
    }
    d_->scatter_add(ldx_.data(), e, ddx);
    d_->scatter_add(ldy_.data(), e, ddy);
    d_->scatter_add(ldz_.data(), e, ddz);
  }
  for (std::size_t g = 0; g < n; ++g) {
    ddx[g] /= mass_[g];
    ddy[g] /= mass_[g];
    ddz[g] /= mass_[g];
  }
}

void Operators3D::divergence(const la::Vector& u, const la::Vector& v, const la::Vector& w,
                             la::Vector& div) const {
  if (div.size() != u.size()) div.resize(u.size());
  gradient(u, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g) div[g] = gx_[g];
  gradient(v, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g) div[g] += gy_[g];
  gradient(w, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g) div[g] += gz_[g];
}

void Operators3D::convection(const la::Vector& u, const la::Vector& v, const la::Vector& w,
                             la::Vector& cu, la::Vector& cv, la::Vector& cw) const {
  if (cu.size() != u.size()) cu.resize(u.size());
  if (cv.size() != u.size()) cv.resize(u.size());
  if (cw.size() != u.size()) cw.resize(u.size());
  gradient(u, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g)
    cu[g] = u[g] * gx_[g] + v[g] * gy_[g] + w[g] * gz_[g];
  gradient(v, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g)
    cv[g] = u[g] * gx_[g] + v[g] * gy_[g] + w[g] * gz_[g];
  gradient(w, gx_, gy_, gz_);
  for (std::size_t g = 0; g < u.size(); ++g)
    cw[g] = u[g] * gx_[g] + v[g] * gy_[g] + w[g] * gz_[g];
}

double Operators3D::integral(const la::Vector& u) const {
  double s = 0.0;
  for (std::size_t g = 0; g < u.size(); ++g) s += mass_[g] * u[g];
  return s;
}

}  // namespace sem
