#pragma once
// Three-dimensional spectral-element core on structured hexahedral meshes:
// the dimensionality NEKTAR-3D actually runs at. Provides the continuous-
// Galerkin discretization and matrix-free tensor-product operators (the
// Helmholtz/Poisson solver on top is sem::HelmholtzSolver<Operators3D> in
// helmholtz.hpp); per-element operator cost is O(P^4) via sum
// factorisation, the same kernel structure whose SIMDization Table 1
// measures.

#include <array>
#include <cstddef>
#include <vector>

#include "la/dense.hpp"
#include "la/vector.hpp"
#include "sem/gll.hpp"

namespace sem {

/// Boundary tags of the box domain's six faces.
enum class HexFace : int { X0 = 0, X1 = 1, Y0 = 2, Y1 = 3, Z0 = 4, Z1 = 5 };

/// Uniform box mesh [0,Lx] x [0,Ly] x [0,Lz] with nx x ny x nz hexahedra
/// and a continuous-Galerkin GLL discretization of order P.
class Discretization3D {
public:
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

  /// Nodes on one of the six box faces (sorted, deduplicated); the 3D
  /// counterpart of Discretization::boundary_nodes(tag).
  const std::vector<std::size_t>& boundary_nodes(HexFace f) const {
    return faces_[static_cast<std::size_t>(f)];
  }
  /// All six faces, ascending.
  std::vector<HexFace> boundary_tags() const {
    return {HexFace::X0, HexFace::X1, HexFace::Y0, HexFace::Y1, HexFace::Z0, HexFace::Z1};
  }

  /// Tensor-product Lagrange evaluation of a nodal field at (x, y, z).
  double evaluate(const la::Vector& field, double x, double y, double z) const;

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

/// Matrix-free 3D operators (sum-factorised tensor kernels).
///
/// The apply paths run on the batched `la::simd` line kernels with
/// per-instance scratch buffers (no allocation and no index arithmetic per
/// apply); the scalar baselines they are checked and timed against live in
/// the test-only library under tests/reference. Scratch makes applies
/// non-reentrant: one Operators3D instance must not be applied from two
/// threads at once (each xmp rank owns its solvers, so this never happens
/// in-tree).
class Operators3D {
public:
  explicit Operators3D(const Discretization3D& d);

  const Discretization3D& disc() const { return *d_; }
  const la::Vector& mass_diag() const { return mass_; }

  void apply_stiffness(const la::Vector& u, la::Vector& y) const;
  /// y = lambda M u + nu K u in a single gather/kernel/scatter sweep: the
  /// diagonal mass term is folded into the element pass (the per-element
  /// lumped masses sum to the assembled diagonal).
  void apply_helmholtz(double lambda, double nu, const la::Vector& u, la::Vector& y) const;
  la::Vector helmholtz_diag(double lambda, double nu) const;

  /// Nodal derivatives, mass-averaged at shared nodes (as in 2D).
  void gradient(const la::Vector& u, la::Vector& ddx, la::Vector& ddy, la::Vector& ddz) const;
  void divergence(const la::Vector& u, const la::Vector& v, const la::Vector& w,
                  la::Vector& div) const;
  /// conv_q = (u.grad) q for each velocity component q in {u, v, w}.
  void convection(const la::Vector& u, const la::Vector& v, const la::Vector& w,
                  la::Vector& cu, la::Vector& cv, la::Vector& cw) const;

  double integral(const la::Vector& u) const;

private:
  void elem_stiffness(const double* u, double* y) const;
  void elem_helmholtz(double lambda, double nu, const double* u, double* y) const;
  void elem_derivs(const double* u, double* dx, double* dy, double* dz) const;

  const Discretization3D* d_;
  la::Vector mass_;
  la::Vector stiff_diag_;
  la::DenseMatrix G_;        // D^T diag(w) D
  la::DenseMatrix GT_, DT_;  // transposes for the along-line (x) kernels
  std::vector<double> ww_;     // w[j]*w[i] outer product, i fastest
  std::vector<double> lmass_;  // per-element lumped mass jac*wa*wb*wc
  // element scratch, hoisted out of the apply loops (see class comment)
  mutable std::vector<double> lu_, ly_, ldx_, ldy_, ldz_;
  // global-field scratch for divergence/convection
  mutable la::Vector gx_, gy_, gz_;
  double jac_;
  double rx_, ry_, rz_;
};

}  // namespace sem
