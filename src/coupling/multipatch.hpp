#pragma once
// Continuum-continuum multi-patch coupling (paper Sec. 3.2): a monolithic
// domain is subdivided into overlapping patches, each solved by its own
// NavierStokes<Operators> instance; once per time step, interface (artificial
// boundary) velocity conditions are refreshed from the neighbouring patch's
// interior solution. This keeps each CG solve inside a small subdomain —
// the mechanism behind the paper's multi-patch scalability (Tables 3-4) —
// while the overlap restores continuity of the global solution.

#include <memory>
#include <vector>

#include "sem/navier_stokes.hpp"

namespace coupling {

struct MultiPatchParams {
  double L = 8.0, H = 1.0;     ///< channel extents
  std::size_t nx = 16, ny = 2; ///< global element grid
  int order = 5;
  int patches = 2;
  std::size_t overlap = 1;     ///< overlap width in element columns

  /// Optional aneurysm-like cavity on the upper wall (the Fig. 1 geometry):
  /// active for x in (cav_x0, cav_x1), depth rounded to element rows.
  /// Patch interfaces may cut straight through the cavity — the interface
  /// tagging follows the masked geometry.
  bool with_cavity = false;
  double cav_x0 = 0.0, cav_x1 = 0.0, cav_depth = 0.0;

  sem::NavierStokes<sem::Operators>::Params ns;  ///< nu, dt (pressure boundaries set here)
};

/// Boundary tags used for the artificial interfaces.
inline constexpr int kIfaceWest = mesh::kUserTagBase + 1;
inline constexpr int kIfaceEast = mesh::kUserTagBase + 2;

class MultiPatchChannel {
public:
  /// Inlet profile u(y) imposed at the true inlet (v = 0 there).
  MultiPatchChannel(const MultiPatchParams& p,
                    std::function<double(double y, double t)> inlet_u);

  int num_patches() const { return static_cast<int>(solvers_.size()); }
  sem::NavierStokes<sem::Operators>& patch(int k) {
    return *solvers_[static_cast<std::size_t>(k)];
  }
  const sem::Discretization& disc(int k) const {
    return *discs_[static_cast<std::size_t>(k)];
  }

  /// One global time step: exchange interface conditions (once, as in the
  /// paper), then advance every patch.
  void step();

  double time() const { return solvers_.front()->time(); }

  /// Max velocity mismatch across all patch interfaces, evaluated at
  /// `samples` points per interface (Fig. 9 diagnostic).
  double interface_jump(int samples = 7) const;

  /// Max pressure mismatch across interfaces after aligning each patch
  /// pair's mean over the overlap (interior patches run mean-pinned
  /// pressure, so only the gauge-free part is comparable — Fig. 9 contours).
  double pressure_jump(int samples = 7) const;

  /// Evaluate the composite solution at (x, y): uses the patch whose
  /// interior (away from artificial boundaries) contains the point.
  double evaluate_u(double x, double y) const;
  double evaluate_v(double x, double y) const;

  /// x-extents [lo, hi] of patch k.
  std::pair<double, double> patch_extent(int k) const;

private:
  double eval_patch_u(int k, double x, double y) const;
  double eval_patch_v(int k, double x, double y) const;
  int owner_patch(double x) const;

  MultiPatchParams prm_;
  double dx_;
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;  // element columns [b, e)
  std::vector<std::unique_ptr<mesh::QuadMesh>> meshes_;
  std::vector<std::unique_ptr<sem::Discretization>> discs_;
  std::vector<std::unique_ptr<sem::NavierStokes<sem::Operators>>> solvers_;
};

}  // namespace coupling
