#include "model/graph.hpp"

#include <stdexcept>

namespace mesh {

void ElementGraph::add_edge(std::size_t u, std::size_t v, double w) {
  if (u >= size() || v >= size()) throw std::out_of_range("ElementGraph::add_edge");
  if (u == v) throw std::invalid_argument("ElementGraph::add_edge: self loop");
  for (auto& e : adj_[u])
    if (e.to == v) {
      e.weight += w;
      for (auto& r : adj_[v])
        if (r.to == u) r.weight += w;
      return;
    }
  adj_[u].push_back({v, w});
  adj_[v].push_back({u, w});
}

double ElementGraph::total_vertex_weight() const {
  double s = 0.0;
  for (double w : vwgt_) s += w;
  return s;
}

std::size_t ElementGraph::num_edges() const {
  std::size_t s = 0;
  for (const auto& l : adj_) s += l.size();
  return s / 2;
}

ElementGraph quad_grid_graph(std::size_t nx, std::size_t ny, int P, AdjacencyPolicy policy) {
  ElementGraph g(nx * ny);
  auto id = [nx](std::size_t i, std::size_t j) { return j * nx + i; };
  const double face_w = static_cast<double>(P + 1);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      if (i + 1 < nx)
        g.add_edge(id(i, j), id(i + 1, j), policy == AdjacencyPolicy::FaceOnly ? 1.0 : face_w);
      if (j + 1 < ny)
        g.add_edge(id(i, j), id(i, j + 1), policy == AdjacencyPolicy::FaceOnly ? 1.0 : face_w);
      if (policy == AdjacencyPolicy::FullDofWeighted) {
        if (i + 1 < nx && j + 1 < ny) g.add_edge(id(i, j), id(i + 1, j + 1), 1.0);
        if (i >= 1 && j + 1 < ny) g.add_edge(id(i, j), id(i - 1, j + 1), 1.0);
      }
    }
  }
  return g;
}

namespace {

/// Shared helper for hex-style grids: dx,dy,dz in {-1,0,1} neighbourhood;
/// the caller maps (i,j,k)->vertex id and decides periodicity.
/// `z_face_factor` scales the dof weight of z-direction faces (FullDofWeighted
/// only; FaceOnly always uses uniform weights, blind to heterogeneity).
template <class IdFn, class WrapFn>
ElementGraph hex_like_graph(std::size_t nx, std::size_t ny, std::size_t nz, int P,
                            AdjacencyPolicy policy, IdFn id, WrapFn wrap_x,
                            double z_face_factor = 1.0) {
  ElementGraph g(nx * ny * nz);
  const double face_w = static_cast<double>((P + 1) * (P + 1));
  const double edge_w = static_cast<double>(P + 1);
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i)
        for (int dz = -1; dz <= 1; ++dz)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              const int order = std::abs(dx) + std::abs(dy) + std::abs(dz);
              if (policy == AdjacencyPolicy::FaceOnly && order != 1) continue;
              const long ii = wrap_x(static_cast<long>(i) + dx);
              const long jj = static_cast<long>(j) + dy;
              const long kk = static_cast<long>(k) + dz;
              if (ii < 0 || jj < 0 || kk < 0 || ii >= static_cast<long>(nx) ||
                  jj >= static_cast<long>(ny) || kk >= static_cast<long>(nz))
                continue;
              const std::size_t u = id(i, j, k);
              const std::size_t v = id(static_cast<std::size_t>(ii),
                                       static_cast<std::size_t>(jj),
                                       static_cast<std::size_t>(kk));
              if (u >= v) continue;  // add each undirected edge once
              double w;
              if (policy == AdjacencyPolicy::FaceOnly) {
                w = face_w;  // uniform: the partitioner sees only face counts
              } else {
                w = order == 1 ? face_w : order == 2 ? edge_w : 1.0;
                if (order == 1 && dz != 0) w *= z_face_factor;
              }
              g.add_edge(u, v, w);
            }
  return g;
}

}  // namespace

ElementGraph hex_grid_graph(std::size_t nx, std::size_t ny, std::size_t nz, int P,
                            AdjacencyPolicy policy) {
  auto id = [nx, ny](std::size_t i, std::size_t j, std::size_t k) {
    return (k * ny + j) * nx + i;
  };
  auto no_wrap = [](long i) { return i; };
  return hex_like_graph(nx, ny, nz, P, policy, id, no_wrap);
}

ElementGraph tube_graph(std::size_t n_axial, std::size_t n_circ, std::size_t n_radial, int P,
                        AdjacencyPolicy policy, double radial_face_factor) {
  // Layout: i = circumferential (periodic), j = axial, k = radial.
  const std::size_t nx = n_circ, ny = n_axial, nz = n_radial;
  auto id = [nx, ny](std::size_t i, std::size_t j, std::size_t k) {
    return (k * ny + j) * nx + i;
  };
  auto wrap = [nx](long i) {
    const long n = static_cast<long>(nx);
    return ((i % n) + n) % n;
  };
  return hex_like_graph(nx, ny, nz, P, policy, id, wrap, radial_face_factor);
}

}  // namespace mesh
