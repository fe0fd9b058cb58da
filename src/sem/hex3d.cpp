#include "sem/hex3d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sem {

Discretization3D::Discretization3D(double Lx, double Ly, double Lz, std::size_t nx,
                                   std::size_t ny, std::size_t nz, int order)
    : Lx_(Lx), Ly_(Ly), Lz_(Lz), nx_(nx), ny_(ny), nz_(nz), P_(order),
      rule_(gll_rule(order)), D_(gll_diff_matrix(rule_)) {
  if (nx == 0 || ny == 0 || nz == 0 || Lx <= 0 || Ly <= 0 || Lz <= 0 || order < 1 ||
      order > kMaxOrder)
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

std::optional<ElementPoint<3>> Discretization3D::locate(const std::array<double, 3>& x) const {
  const std::array<double, 3> L{Lx_, Ly_, Lz_}, h = element_size();
  const std::array<std::size_t, 3> n{nx_, ny_, nz_};
  ElementPoint<3> p;
  for (std::size_t k = 3; k-- > 0;) {  // z first: element = (k * ny + j) * nx + i
    // written as "inside" so that NaN (false in every comparison) is
    // rejected before the integer cast
    if (!(x[k] >= -1e-12 && x[k] <= L[k] + 1e-12)) return std::nullopt;
    const auto e = static_cast<long>(std::floor(x[k] / h[k]));
    const auto i = static_cast<std::size_t>(std::clamp<long>(e, 0, static_cast<long>(n[k]) - 1));
    p.element = p.element * n[k] + i;
    p.xi[k] = std::clamp(2.0 * (x[k] - static_cast<double>(i) * h[k]) / h[k] - 1.0, -1.0, 1.0);
  }
  return p;
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

}  // namespace sem
