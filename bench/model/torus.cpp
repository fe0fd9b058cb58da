#include "model/torus.hpp"

#include <cstdlib>
#include <stdexcept>

namespace machine {

Torus::Torus(const TorusSpec& spec) : spec_(spec) {
  if (spec.nx <= 0 || spec.ny <= 0 || spec.nz <= 0 || spec.cores_per_node <= 0)
    throw std::invalid_argument("Torus: non-positive dimension");
}

NodeCoord Torus::coords(int node) const {
  NodeCoord c;
  c.x = node % spec_.nx;
  c.y = (node / spec_.nx) % spec_.ny;
  c.z = node / (spec_.nx * spec_.ny);
  return c;
}

int Torus::node_at(const NodeCoord& c) const {
  return c.x + spec_.nx * (c.y + spec_.ny * c.z);
}

std::array<int, 3> Torus::delta(int a, int b) const {
  const NodeCoord ca = coords(a), cb = coords(b);
  const int dims[3] = {spec_.nx, spec_.ny, spec_.nz};
  const int raw[3] = {cb.x - ca.x, cb.y - ca.y, cb.z - ca.z};
  std::array<int, 3> d{};
  for (int k = 0; k < 3; ++k) {
    int v = raw[k] % dims[k];
    if (v > dims[k] / 2) v -= dims[k];
    if (v < -dims[k] / 2) v += dims[k];
    // for even dims, |v| == dims/2 is ambiguous and keeps the sign of the
    // raw coordinate difference: a->b and b->a go opposite ways round the ring
    d[k] = v;
  }
  return d;
}

int Torus::hops(int a, int b) const {
  auto d = delta(a, b);
  return std::abs(d[0]) + std::abs(d[1]) + std::abs(d[2]);
}

std::vector<Link> Torus::route(int a, int b, const std::array<int, 3>& dim_order) const {
  std::vector<Link> links;
  auto d = delta(a, b);
  NodeCoord cur = coords(a);
  const int dims[3] = {spec_.nx, spec_.ny, spec_.nz};
  for (int dim : dim_order) {
    const int step = d[dim] > 0 ? 1 : -1;
    for (int s = 0; s < std::abs(d[dim]); ++s) {
      int node = node_at(cur);
      links.push_back(Link{node, dim, step});
      int* comp = dim == 0 ? &cur.x : dim == 1 ? &cur.y : &cur.z;
      *comp = (*comp + step + dims[dim]) % dims[dim];
    }
  }
  return links;
}

Link Torus::first_hop(int a, int b) const {
  // the first dimension with movement under XYZ order
  const auto d = delta(a, b);
  int dim = 0;
  for (int k = 0; k < 3; ++k)
    if (d[k] != 0) {
      dim = k;
      break;
    }
  return Link{a, dim, d[dim] >= 0 ? 1 : -1};
}

std::int64_t Torus::link_key(const Link& l) const {
  // 6 directed links per node: dim*2 + (sign>0)
  return static_cast<std::int64_t>(l.node) * 6 + l.dim * 2 + (l.sign > 0 ? 1 : 0);
}

}  // namespace machine
