#pragma once
// Continuous-Galerkin spectral-element discretization over a (possibly
// masked) structured QuadMesh: global GLL node numbering, element gather /
// scatter maps, node coordinates, boundary-node sets per tag, and point
// evaluation of fields (used to interpolate velocity onto coupling
// interfaces, paper Sec. 3.3).

#include <cstddef>
#include <map>
#include <vector>

#include "la/dense.hpp"
#include "la/vector.hpp"
#include "mesh/quadmesh.hpp"
#include "sem/gll.hpp"

namespace sem {

/// A scalar field is a la::Vector of length Discretization::num_nodes().

class Discretization {
public:
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

  double node_x(std::size_t g) const { return coords_x_[g]; }
  double node_y(std::size_t g) const { return coords_y_[g]; }

  /// Global nodes lying on boundary faces with the given tag (deduplicated,
  /// ascending). Nodes shared between two tags appear in both sets.
  const std::vector<std::size_t>& boundary_nodes(int tag) const;
  /// All tags present on the boundary.
  std::vector<int> boundary_tags() const;

  /// Element containing (x, y), or -1 if outside the mesh/mask.
  long locate(double x, double y) const;

  /// Evaluate a field at (x, y) by tensor-product Lagrange interpolation in
  /// the containing element. Throws if (x, y) is outside the domain.
  double evaluate(const la::Vector& field, double x, double y) const;

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

}  // namespace sem
