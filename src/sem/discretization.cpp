#include "sem/discretization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace sem {

Discretization::Discretization(const mesh::QuadMesh& mesh, int order)
    : mesh_(mesh), P_(order), rule_(gll_rule(order)), D_(gll_diff_matrix(rule_)) {
  if (order < 1) throw std::invalid_argument("Discretization: order must be >= 1");
  const std::size_t npe = nodes_per_element();
  elem_map_.assign(mesh_.num_cells() * npe, 0);

  // Global nodes live on the lattice (i*P + a, j*P + b) restricted to active
  // cells; lattice key -> compact id.
  const std::size_t lat_nx = mesh_.grid_nx() * static_cast<std::size_t>(P_) + 1;
  std::unordered_map<std::size_t, std::size_t> lat2g;
  lat2g.reserve(mesh_.num_cells() * npe);

  for (std::size_t e = 0; e < mesh_.num_cells(); ++e) {
    const auto [ci, cj] = mesh_.cell_coords(e);
    const auto [ox, oy] = mesh_.cell_origin(e);
    for (int b = 0; b <= P_; ++b) {
      for (int a = 0; a <= P_; ++a) {
        const std::size_t li = ci * static_cast<std::size_t>(P_) + static_cast<std::size_t>(a);
        const std::size_t lj = cj * static_cast<std::size_t>(P_) + static_cast<std::size_t>(b);
        const std::size_t key = lj * lat_nx + li;
        auto [it, inserted] = lat2g.try_emplace(key, coords_x_.size());
        if (inserted) {
          coords_x_.push_back(ox + 0.5 * (rule_.nodes[static_cast<std::size_t>(a)] + 1.0) *
                                       mesh_.dx());
          coords_y_.push_back(oy + 0.5 * (rule_.nodes[static_cast<std::size_t>(b)] + 1.0) *
                                       mesh_.dy());
        }
        const std::size_t g = it->second;
        elem_map_[e * npe + static_cast<std::size_t>(b) * (P_ + 1) +
                  static_cast<std::size_t>(a)] = g;
      }
    }
  }

  // boundary node sets
  for (const auto& f : mesh_.boundary_faces()) {
    auto& set = boundary_[f.tag];
    for (int k = 0; k <= P_; ++k) {
      int a = 0, b = 0;
      switch (f.side) {
        case mesh::Side::South: a = k; b = 0; break;
        case mesh::Side::North: a = k; b = P_; break;
        case mesh::Side::West: a = 0; b = k; break;
        case mesh::Side::East: a = P_; b = k; break;
      }
      set.push_back(global_node(f.cell, a, b));
    }
  }
  for (auto& [tag, set] : boundary_) {
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
}

const std::vector<std::size_t>& Discretization::boundary_nodes(int tag) const {
  auto it = boundary_.find(tag);
  return it == boundary_.end() ? empty_ : it->second;
}

std::vector<int> Discretization::boundary_tags() const {
  std::vector<int> tags;
  tags.reserve(boundary_.size());
  for (const auto& [t, s] : boundary_) tags.push_back(t);
  return tags;
}

long Discretization::locate(double x, double y) const {
  const double fx = (x - mesh_.x0()) / mesh_.dx();
  const double fy = (y - mesh_.y0()) / mesh_.dy();
  long i = static_cast<long>(std::floor(fx));
  long j = static_cast<long>(std::floor(fy));
  // points exactly on the far boundary belong to the last cell
  if (i == static_cast<long>(mesh_.grid_nx()) && std::fabs(fx - i) < 1e-12) --i;
  if (j == static_cast<long>(mesh_.grid_ny()) && std::fabs(fy - j) < 1e-12) --j;
  if (i < 0 || j < 0 || i >= static_cast<long>(mesh_.grid_nx()) ||
      j >= static_cast<long>(mesh_.grid_ny()))
    return -1;
  if (!mesh_.is_active(static_cast<std::size_t>(i), static_cast<std::size_t>(j))) return -1;
  return static_cast<long>(mesh_.cell_index(static_cast<std::size_t>(i),
                                            static_cast<std::size_t>(j)));
}

double Discretization::evaluate(const la::Vector& field, double x, double y) const {
  const long e = locate(x, y);
  if (e < 0) throw std::out_of_range("Discretization::evaluate: point outside domain");
  const auto [ox, oy] = mesh_.cell_origin(static_cast<std::size_t>(e));
  const double xi = 2.0 * (x - ox) / mesh_.dx() - 1.0;
  const double eta = 2.0 * (y - oy) / mesh_.dy() - 1.0;
  const la::Vector lx = lagrange_basis_at(rule_, std::clamp(xi, -1.0, 1.0));
  const la::Vector ly = lagrange_basis_at(rule_, std::clamp(eta, -1.0, 1.0));
  double s = 0.0;
  for (int b = 0; b <= P_; ++b) {
    double row = 0.0;
    for (int a = 0; a <= P_; ++a)
      row += lx[static_cast<std::size_t>(a)] *
             field[global_node(static_cast<std::size_t>(e), a, b)];
    s += ly[static_cast<std::size_t>(b)] * row;
  }
  return s;
}

void Discretization::gather(const la::Vector& field, std::size_t e, double* local) const {
  const std::size_t npe = nodes_per_element();
  const std::size_t* map = elem_map_.data() + e * npe;
  for (std::size_t k = 0; k < npe; ++k) local[k] = field[map[k]];
}

void Discretization::scatter_add(const double* local, std::size_t e, la::Vector& field) const {
  const std::size_t npe = nodes_per_element();
  const std::size_t* map = elem_map_.data() + e * npe;
  for (std::size_t k = 0; k < npe; ++k) field[map[k]] += local[k];
}

}  // namespace sem
