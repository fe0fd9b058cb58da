#pragma once
// Spatial decomposition of the (possibly periodic) DPD box into a uniform
// px x py x pz grid of subdomains, one per xmp rank (the paper runs the
// atomistic side this way across thousands of MPI ranks; see docs/PERF.md
// "Distributed DPD"). The class is pure geometry — ownership of a particle
// is "its position falls inside my subdomain", halo membership is "within
// halo_width of your subdomain under the box periodicity" — and every rank
// constructs an identical instance, so all placement decisions are
// replicated instead of communicated.

#include <array>
#include <vector>

#include "dpd/types.hpp"

namespace dpd::exchange {

/// Process-grid dimensions. count()==0 (the default) asks for auto_dims().
struct GridDims {
  int px = 0, py = 0, pz = 0;
  int count() const { return px * py * pz; }
};

/// Factor `nranks` into a grid minimizing per-subdomain surface (ghost
/// traffic) for the given box aspect: among all factorizations the one with
/// the smallest ly*lz + lx*lz + lx*ly wins, ties broken towards splitting
/// the longest axis.
GridDims auto_dims(int nranks, const Vec3& box);

/// Half-open axis-aligned slab of the box: lo <= p < hi per axis.
struct Subdomain {
  Vec3 lo{}, hi{};
};

class Decomposition {
public:
  /// Throws std::invalid_argument when dims.count() != nranks or any
  /// dimension is non-positive, and when halo_width <= 0. Cut planes start
  /// uniform; rebalance()/set_bounds() move them.
  Decomposition(const Vec3& box, const std::array<bool, 3>& periodic, GridDims dims,
                double halo_width);

  int nranks() const { return dims_.count(); }
  const GridDims& dims() const { return dims_; }
  double halo_width() const { return halo_; }
  const Vec3& box() const { return box_; }

  std::array<int, 3> coords_of(int rank) const;
  int rank_at(int cx, int cy, int cz) const;  ///< periodic wrap / clamp per axis
  Subdomain subdomain(int rank) const;

  /// Owning rank of a position (clamped into the box on non-periodic axes,
  /// wrapped on periodic ones).
  int rank_of_position(const Vec3& p) const;

  /// Ranks (ascending, excluding `rank`) whose subdomain lies within
  /// halo_width of rank's subdomain under the box periodicity — the only
  /// ranks halo/migration traffic can flow to or from.
  const std::vector<int>& neighbors(int rank) const { return neighbors_[static_cast<std::size_t>(rank)]; }

  /// Box of the positions rank_of_position() maps to `rank` without a
  /// search: the subdomain with each non-periodic outer face moved to
  /// infinity (rank_of_position clamps there). A p with lo <= p < hi on
  /// every axis is owned by `rank`; any other p (a periodic coordinate
  /// outside [0, L), a NaN) must ask rank_of_position.
  Subdomain owned_box(int rank) const;

  /// Squared distance from p to subdomain s (0 inside), taking the shorter
  /// way around on periodic axes.
  double dist2_to(const Vec3& p, const Subdomain& s) const;
  double dist2_to_subdomain(const Vec3& p, int rank) const { return dist2_to(p, subdomain(rank)); }

  /// Must the rank owning subdomain s hold a ghost image of a particle at
  /// p? A rebuild takes each neighbour's subdomain once and asks this for
  /// every owned particle.
  bool in_halo(const Vec3& p, const Subdomain& s) const { return dist2_to(p, s) < halo_ * halo_; }
  bool in_halo_of(const Vec3& p, int dst) const { return in_halo(p, subdomain(dst)); }

  /// Per-axis slab boundaries: dims+1 ascending values from 0 to the box
  /// length. Subdomain membership, neighbor sets and halo tests all derive
  /// from these, so they stay mutually consistent when cuts move.
  const std::vector<double>& bounds(int axis) const {
    return cuts_[static_cast<std::size_t>(axis)];
  }
  /// Replace one axis's boundaries (size dims+1, strictly ascending, first 0
  /// and last the box length — throws std::invalid_argument otherwise) and
  /// rebuild the neighbor sets. Every rank must apply identical bounds: the
  /// decomposition is replicated, never communicated.
  void set_bounds(int axis, const std::vector<double>& b);

  /// Move interior cut planes toward equal per-slab particle counts, one
  /// axis at a time, from per-axis position histograms (hist[a][b] = global
  /// count of particles whose axis-a coordinate falls in bin b of a uniform
  /// binning of [0, box length)). Each cut targets the marginal quantile of
  /// its slab index but moves at most `max_shift_fraction * halo_width` per
  /// call — the bound that keeps every post-rebalance migration inside the
  /// new neighbor shell — and slabs keep a minimum width of half the
  /// smaller of halo_width and the uniform slab. Returns true when any cut
  /// moved (callers must then migrate ownership and re-ship ghosts).
  bool rebalance(const std::array<std::vector<double>, 3>& hist,
                 double max_shift_fraction = 0.9);

private:
  void rebuild_neighbors();

  Vec3 box_{};
  std::array<bool, 3> periodic_{};
  GridDims dims_{};
  double halo_ = 0.0;
  std::array<std::vector<double>, 3> cuts_;  // per axis: dims+1 boundaries
  std::vector<std::vector<int>> neighbors_;
};

}  // namespace dpd::exchange
