#pragma once
// Verlet neighbor-list engine for the DPD force path (paper Sec. 3.5: the
// DPD-LAMMPS hot loops). A cell grid with cells of size >= rc + skin bins
// the particles; from it we build a half neighbor list (each pair stored
// once, under its lower index, runs sorted ascending) that is *reused*
// across force evaluations until any particle has moved farther than
// skin/2 from its position at build time — the classic Verlet-list
// criterion that guarantees no interacting pair (r < rc) is ever missed.
//
// The canonical (i ascending, j ascending within each run) pair ordering is
// load-bearing: the force loop skips out-of-range pairs entirely, so the
// floating-point summation order of the *contributing* pairs is a function
// of the particle state alone, not of when the list was last rebuilt. That
// is what keeps checkpoint/restart bitwise identical even though a restart
// rebuilds the list while an uninterrupted run may still be reusing an
// older (valid) one. Under spatial decomposition (exchange/) the same
// property extends across ranks: local arrays are kept sorted by global
// particle ID, so index order == gid order and every rank accumulates an
// owned particle's pair forces in exactly the single-rank order.
//
// Particle churn (open-boundary deletion and insertion) patches the live
// list instead of discarding it: removal compacts it in place through the
// same index remap the force modules get (on_remap), and particles appended
// since the last ensure() are merged in with every partner j whose
// *reference* position lies within rc + skin, which is exactly what a full
// build at the same reference positions would list.
//
// Positions are structure-of-arrays (soa.hpp); build/ensure/query stream
// the flat x/y/z lanes. An optional ghost-pair filter drops both-ghost
// pairs, which no force on an owned particle needs.
//
// The same cell grid serves point queries (query()) for sparse secondary
// scans — platelet adhesion and thrombus-arrest checks — which would
// otherwise rescan particle subsets quadratically.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dpd/soa.hpp"
#include "dpd/types.hpp"

namespace dpd {

struct NeighborParams {
  Vec3 box{20.0, 10.0, 10.0};
  std::array<bool, 3> periodic{true, true, false};
  double rc = 1.0;    ///< interaction cutoff
  double skin = 0.3;  ///< Verlet skin: list radius is rc + skin
};

class NeighborList {
public:
  NeighborList() = default;
  explicit NeighborList(const NeighborParams& p) { configure(p); }

  /// Set the geometry/cutoff parameters; drops any existing list.
  void configure(const NeighborParams& p);
  const NeighborParams& params() const { return prm_; }

  /// Exclude pairs from the half list that no local computation needs:
  /// with `is_ghost` set, both-ghost pairs are skipped. Pass nullptr to
  /// clear. The mask must outlive the list and cover every particle at
  /// build time; changing it invalidates the list.
  void set_pair_filter(const std::vector<char>* is_ghost) {
    ghost_ = is_ghost;
    invalidate();
  }

  /// Make the list valid for `pos`: reuse it when every listed particle has
  /// moved less than skin/2 since the last build, rebuild otherwise.
  /// Particles appended to `pos` since the last call are merged into a
  /// reused list (full build for degenerate boxes and ghost-filtered lists).
  /// Returns true iff a full rebuild happened.
  bool ensure(const SoA3& pos);

  /// Drop the list (wholesale state reload).
  void invalidate() { valid_ = false; }
  /// Particle removal (ForceModule-style remap hook): new_index[i] is the
  /// new index of old particle i, or -1 if it was removed; survivors keep
  /// their relative order. Compacts the live list in place; a ghost-filtered
  /// list is invalidated instead.
  void on_remap(const std::vector<long>& new_index);
  bool valid() const { return valid_; }
  /// Bumped by every build, compaction and append: a cache derived from the
  /// list topology (DpdSystem's overlap row classes) is current while its
  /// recorded version matches.
  std::uint64_t version() const { return version_; }

  // --- stats (telemetry mirrors these as dpd.nlist.* counters) ---
  std::uint64_t rebuilds() const { return rebuilds_; }
  /// Passes that kept the list, including those that appended to it.
  std::uint64_t reuses() const { return reuses_; }
  std::size_t pair_count() const { return neighbors_.size(); }
  /// True when a periodic dimension has < 3 cells and the pair list had to
  /// be built by direct O(N^2) enumeration (half-stencil double-counts).
  bool degenerate() const { return degenerate_; }

  /// CSR half list: pairs of particle i live in
  /// neighbors_[offsets()[i] .. offsets()[i+1]), sorted ascending, j > i.
  const std::vector<std::size_t>& offsets() const { return offsets_; }
  const std::vector<std::uint32_t>& neighbors() const { return neighbors_; }

  /// Minimum-image displacement a -> b under the configured periodicity.
  Vec3 min_image(const Vec3& a, const Vec3& b) const {
    Vec3 d = b - a;
    auto mi = [](double v, double L) {
      if (v > 0.5 * L) return v - L;
      if (v < -0.5 * L) return v + L;
      return v;
    };
    if (prm_.periodic[0]) d.x = mi(d.x, prm_.box.x);
    if (prm_.periodic[1]) d.y = mi(d.y, prm_.box.y);
    if (prm_.periodic[2]) d.z = mi(d.z, prm_.box.z);
    return d;
  }

  /// Visit every interacting pair (r < rc at *current* positions) once:
  /// fn(i, j, dr = xj - xi minimum image, r). Requires a valid list.
  template <class Fn>
  void for_each(const SoA3& pos, Fn&& fn) const {
    const double rc2 = prm_.rc * prm_.rc;
    const std::size_t n = offsets_.empty() ? 0 : offsets_.size() - 1;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
        const std::size_t j = neighbors_[k];
        const Vec3 dr = min_image(pos[i], pos[j]);
        const double r2 = dr.norm2();
        if (r2 < rc2 && r2 > 1e-20) fn(i, j, dr, std::sqrt(r2));
      }
    }
  }

  /// Visit every particle within `cutoff` of point `p` (current positions):
  /// fn(j, dr = xj - p minimum image, r2). Walks only the grid cells that
  /// can hold such a particle, padding the search radius by skin/2 because
  /// the grid bins reference positions. Particles appended since the last
  /// ensure() are not binned yet and are scanned directly. The caller must
  /// have ensure()d the list against the same position array.
  template <class Fn>
  void query(const SoA3& pos, const Vec3& p, double cutoff, Fn&& fn) const {
    const double c2 = cutoff * cutoff;
    auto scan = [&](std::size_t from) {
      for (std::size_t j = from; j < pos.size(); ++j) {
        const Vec3 dr = min_image(p, pos[j]);
        const double r2 = dr.norm2();
        if (r2 <= c2) fn(j, dr, r2);
      }
    };
    if (!valid_ || pos.size() < ref_pos_.size()) {
      scan(0);
      return;
    }
    for_each_binned_near(p, cutoff + 0.5 * prm_.skin, [&](std::size_t j) {
      const Vec3 dr = min_image(p, pos[j]);
      const double r2 = dr.norm2();
      if (r2 <= c2) fn(j, dr, r2);
    });
    scan(ref_pos_.size());
  }

private:
  void build(const SoA3& pos);
  /// Merge particles [ref_pos_.size(), pos.size()) into the reused list.
  void append(const SoA3& pos);
  /// Re-bin every reference position into the cell grid.
  void rebin();
  /// Link particle i into the grid cell holding its reference position.
  void bin(std::size_t i);

  /// fn(j) for every binned particle j in the grid cells that can hold a
  /// reference position within `pad` of point p.
  template <class Fn>
  void for_each_binned_near(const Vec3& p, double pad, Fn&& fn) const {
    Vec3 q = p;
    wrap(q);
    const int bx = cell_coord(q.x, prm_.box.x, ncx_);
    const int by = cell_coord(q.y, prm_.box.y, ncy_);
    const int bz = cell_coord(q.z, prm_.box.z, ncz_);
    const std::vector<int> cx = cells_along(bx, pad, csx_, ncx_, prm_.periodic[0]);
    const std::vector<int> cy = cells_along(by, pad, csy_, ncy_, prm_.periodic[1]);
    const std::vector<int> cz = cells_along(bz, pad, csz_, ncz_, prm_.periodic[2]);
    for (int a : cz)
      for (int b : cy)
        for (int c : cx) {
          const std::size_t cell =
              (static_cast<std::size_t>(a) * ncy_ + b) * static_cast<std::size_t>(ncx_) + c;
          for (long j = cell_head_[cell]; j >= 0; j = cell_next_[static_cast<std::size_t>(j)])
            fn(static_cast<std::size_t>(j));
        }
  }

  void wrap(Vec3& p) const {
    auto wrap1 = [](double v, double L) {
      v = std::fmod(v, L);
      return v < 0.0 ? v + L : v;
    };
    if (prm_.periodic[0]) p.x = wrap1(p.x, prm_.box.x);
    if (prm_.periodic[1]) p.y = wrap1(p.y, prm_.box.y);
    if (prm_.periodic[2]) p.z = wrap1(p.z, prm_.box.z);
  }

  static int cell_coord(double v, double L, int n) {
    const int c = static_cast<int>(v / L * n);
    return c < 0 ? 0 : (c >= n ? n - 1 : c);
  }

  /// Cells along one dimension whose contents can lie within `pad` of cell
  /// `base` (periodic wrap, each cell listed at most once).
  static std::vector<int> cells_along(int base, double pad, double cell_size, int n, bool per) {
    const int reach = static_cast<int>(std::ceil(pad / cell_size));
    std::vector<int> out;
    if (2 * reach + 1 >= n) {
      out.resize(static_cast<std::size_t>(n));
      for (int c = 0; c < n; ++c) out[static_cast<std::size_t>(c)] = c;
      return out;
    }
    out.reserve(static_cast<std::size_t>(2 * reach + 1));
    for (int d = -reach; d <= reach; ++d) {
      int c = base + d;
      if (c < 0) {
        if (!per) continue;
        c += n;
      } else if (c >= n) {
        if (!per) continue;
        c -= n;
      }
      out.push_back(c);
    }
    return out;
  }

  NeighborParams prm_;
  bool valid_ = false;
  bool degenerate_ = false;

  // optional decomposition pair filter (see set_pair_filter)
  const std::vector<char>* ghost_ = nullptr;

  // cell grid over reference positions
  int ncx_ = 0, ncy_ = 0, ncz_ = 0;
  double csx_ = 0.0, csy_ = 0.0, csz_ = 0.0;
  std::vector<long> cell_head_, cell_next_;

  /// Reference positions: at build time, or at append time for particles
  /// merged later (rebuild trigger; the list holds every pair within
  /// rc + skin of each other here).
  SoA3 ref_pos_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> neighbors_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pair_scratch_;

  std::uint64_t rebuilds_ = 0, reuses_ = 0, version_ = 0;
};

}  // namespace dpd
