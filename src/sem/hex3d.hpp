#pragma once
// Three-dimensional spectral-element discretization on structured
// hexahedral meshes: the dimensionality NEKTAR-3D actually runs at. It is
// the 3D counterpart of Discretization (discretization.hpp), with the same
// interface: global GLL node numbering, gather/scatter tables, node
// coordinates, boundary-node sets (per box face) and the point location
// behind sem::evaluate. The operators, Helmholtz solver and Navier-Stokes
// stepper on top are the templates sem::Operators<Discretization3D>,
// HelmholtzSolver<...> and NavierStokes<...>; per-element operator cost is
// O(P^4) via sum factorisation, the same kernel structure whose SIMDization
// Table 1 measures.

#include <array>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "la/dense.hpp"
#include "la/vector.hpp"
#include "sem/evaluate.hpp"
#include "sem/gll.hpp"

namespace sem {

/// Boundary tags of the box domain's six faces.
enum class HexFace : int { X0 = 0, X1 = 1, Y0 = 2, Y1 = 3, Z0 = 4, Z1 = 5 };

/// Uniform box mesh [0,Lx] x [0,Ly] x [0,Lz] with nx x ny x nz hexahedra
/// and a continuous-Galerkin GLL discretization of order P. Node ids are
/// lattice-ordered, x fastest: g = (k * (ny P + 1) + j) * (nx P + 1) + i.
/// The 3D Helmholtz preconditioner (helmholtz.hpp) relies on this layout.
class Discretization3D {
public:
  static constexpr std::size_t kDim = 3;
  using Boundary = HexFace;
  /// A scalar function of a point (x, y, z), then `Extra` (the time t for
  /// Navier-Stokes BCs); see eval_at.
  template <class... Extra>
  using PointFn = std::function<double(double x, double y, double z, Extra...)>;

  /// Throws std::invalid_argument for an empty box or grid, or order outside [1, kMaxOrder].
  Discretization3D(double Lx, double Ly, double Lz, std::size_t nx, std::size_t ny,
                   std::size_t nz, int order);

  int order() const { return P_; }
  const GllRule& rule() const { return rule_; }
  const la::DenseMatrix& diff_matrix() const { return D_; }

  std::size_t num_nodes() const { return ncoords_; }
  std::size_t num_elements() const { return nx_ * ny_ * nz_; }
  std::size_t nodes_per_element() const {
    const auto n1 = static_cast<std::size_t>(P_ + 1);
    return n1 * n1 * n1;
  }

  double Lx() const { return Lx_; }
  double Ly() const { return Ly_; }
  double Lz() const { return Lz_; }
  double dx() const { return Lx_ / static_cast<double>(nx_); }
  double dy() const { return Ly_ / static_cast<double>(ny_); }
  double dz() const { return Lz_ / static_cast<double>(nz_); }
  /// Element edge lengths (dx, dy, dz).
  std::array<double, kDim> element_size() const { return {dx(), dy(), dz()}; }
  /// Element counts (nx, ny, nz) along each axis.
  std::array<std::size_t, kDim> element_counts() const { return {nx_, ny_, nz_}; }

  /// Global node id of element e's local node (a, b, c). O(1) lookup in the
  /// precomputed element->global table (built once at construction; the
  /// arithmetic lattice addressing only runs at build time).
  std::size_t global_node(std::size_t e, int a, int b, int c) const {
    return elem_map_[e * nodes_per_element() +
                     (static_cast<std::size_t>(c) * (static_cast<std::size_t>(P_) + 1) +
                      static_cast<std::size_t>(b)) *
                         (static_cast<std::size_t>(P_) + 1) +
                     static_cast<std::size_t>(a)];
  }

  /// Element e's slice of the gather/scatter table: nodes_per_element()
  /// global ids in (c, b, a) order, `a` fastest. The operator fast paths
  /// stream through this instead of re-deriving lattice indices.
  const std::size_t* elem_map(std::size_t e) const {
    return elem_map_.data() + e * nodes_per_element();
  }

  double node_x(std::size_t g) const;
  double node_y(std::size_t g) const;
  double node_z(std::size_t g) const;
  std::array<double, kDim> node(std::size_t g) const {
    return {node_x(g), node_y(g), node_z(g)};
  }

  /// Nodes on one of the six box faces (sorted, deduplicated); the 3D
  /// counterpart of Discretization::boundary_nodes(tag).
  const std::vector<std::size_t>& boundary_nodes(HexFace f) const {
    return faces_[static_cast<std::size_t>(f)];
  }
  /// All six faces, ascending.
  std::vector<HexFace> boundary_tags() const {
    return {HexFace::X0, HexFace::X1, HexFace::Y0, HexFace::Y1, HexFace::Z0, HexFace::Z1};
  }

  /// Element containing x and x's reference coordinates in it, or nullopt
  /// if x is more than 1e-12 outside the box or not finite. Points within
  /// that margin outside go to the nearest boundary element.
  std::optional<ElementPoint<kDim>> locate(const std::array<double, kDim>& x) const;

  void gather(const la::Vector& field, std::size_t e, double* local) const;
  void scatter_add(const double* local, std::size_t e, la::Vector& field) const;

private:
  std::size_t lattice_id(std::size_t li, std::size_t lj, std::size_t lk) const;
  std::size_t lattice_node(std::size_t e, int a, int b, int c) const;

  double Lx_, Ly_, Lz_;
  std::size_t nx_, ny_, nz_;
  int P_;
  GllRule rule_;
  la::DenseMatrix D_;
  std::size_t ncoords_ = 0;
  std::size_t lat_nx_ = 0, lat_ny_ = 0, lat_nz_ = 0;
  std::array<std::vector<std::size_t>, 6> faces_;
  std::vector<std::size_t> elem_map_;  // e * npe + local -> global (a fastest)
};

/// f(x, y, z, extra...) at the point x.
template <class F, class... Extra>
double eval_at(const F& f, const std::array<double, 3>& x, Extra... extra) {
  return f(x[0], x[1], x[2], extra...);
}

}  // namespace sem
