#pragma once
// Continuous-Galerkin spectral-element discretization over a (possibly
// masked) structured QuadMesh: global GLL node numbering, element gather /
// scatter maps, node coordinates, boundary-node sets per tag, and the point
// location behind sem::evaluate (sem/evaluate.hpp).

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "la/dense.hpp"
#include "la/vector.hpp"
#include "mesh/quadmesh.hpp"
#include "sem/evaluate.hpp"
#include "sem/gll.hpp"

namespace sem {

/// A scalar field is a la::Vector of length Discretization::num_nodes().

class Discretization {
public:
  static constexpr std::size_t kDim = 2;
  using Boundary = int;  ///< mesh boundary tag
  /// A scalar function of a point (x, y), then `Extra` (the time t for
  /// Navier-Stokes BCs); see eval_at.
  template <class... Extra>
  using PointFn = std::function<double(double x, double y, Extra...)>;

  /// Throws std::invalid_argument unless 1 <= order <= kMaxOrder.
  Discretization(const mesh::QuadMesh& mesh, int order);

  const mesh::QuadMesh& mesh() const { return mesh_; }
  int order() const { return P_; }
  const GllRule& rule() const { return rule_; }
  const la::DenseMatrix& diff_matrix() const { return D_; }

  std::size_t num_nodes() const { return coords_x_.size(); }
  std::size_t num_elements() const { return mesh_.num_cells(); }
  std::size_t nodes_per_element() const {
    return static_cast<std::size_t>((P_ + 1) * (P_ + 1));
  }

  /// Global node id of element e's local node (a, b), a,b in [0, P]
  /// (a = x-direction index, b = y-direction).
  std::size_t global_node(std::size_t e, int a, int b) const {
    return elem_map_[e * nodes_per_element() + static_cast<std::size_t>(b) * (P_ + 1) +
                     static_cast<std::size_t>(a)];
  }

  /// Element e's slice of the gather/scatter table: nodes_per_element()
  /// global ids in (b, a) order, `a` fastest. The operator fast paths
  /// stream through this instead of calling global_node per node.
  const std::size_t* elem_map(std::size_t e) const {
    return elem_map_.data() + e * nodes_per_element();
  }

  /// Element edge lengths (dx, dy) of the uniform grid.
  std::array<double, kDim> element_size() const { return {mesh_.dx(), mesh_.dy()}; }
  /// Element counts (nx, ny) of the grid, masked cells included.
  std::array<std::size_t, kDim> element_counts() const {
    return {mesh_.grid_nx(), mesh_.grid_ny()};
  }

  double node_x(std::size_t g) const { return coords_x_[g]; }
  double node_y(std::size_t g) const { return coords_y_[g]; }
  std::array<double, kDim> node(std::size_t g) const { return {coords_x_[g], coords_y_[g]}; }

  /// Global nodes lying on boundary faces with the given tag (deduplicated,
  /// ascending). Nodes shared between two tags appear in both sets.
  const std::vector<std::size_t>& boundary_nodes(int tag) const;
  /// All tags present on the boundary.
  std::vector<int> boundary_tags() const;

  /// Element containing x and x's reference coordinates in it, or nullopt
  /// outside the mesh/mask or at a non-finite x. The far boundary belongs
  /// to the last cell.
  std::optional<ElementPoint<kDim>> locate(const std::array<double, kDim>& x) const;

  /// Interpolate a field onto each element's GLL grid (gather): out has
  /// nodes_per_element() entries, (b*(P+1)+a) layout.
  void gather(const la::Vector& field, std::size_t e, double* local) const;
  /// Scatter-add element-local values into a global field.
  void scatter_add(const double* local, std::size_t e, la::Vector& field) const;

private:
  mesh::QuadMesh mesh_;
  int P_;
  GllRule rule_;
  la::DenseMatrix D_;

  std::vector<std::size_t> elem_map_;  // e * npe + local -> global
  std::vector<double> coords_x_, coords_y_;
  std::map<int, std::vector<std::size_t>> boundary_;
  std::vector<std::size_t> empty_;
};

/// f(x, y, extra...) at the point x.
template <class F, class... Extra>
double eval_at(const F& f, const std::array<double, 2>& x, Extra... extra) {
  return f(x[0], x[1], extra...);
}

}  // namespace sem
