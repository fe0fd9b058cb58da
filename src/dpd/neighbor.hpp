#pragma once
// Verlet neighbor-list engine for the DPD force path (paper Sec. 3.5: the
// DPD-LAMMPS hot loops). A cell grid with cells of size >= rc + skin bins
// the particles; from it we build a half neighbor list (each pair stored
// once, under its lower index, runs sorted ascending) that is *reused*
// across force evaluations until any particle has moved farther than
// skin/2 from its position at build time — the classic Verlet-list
// criterion that guarantees no interacting pair (r < rc) is ever missed.
// The list is the one place that rule lives (stale()): the decomposition
// driver (exchange/distributed.hpp) asks it whether to relayout, and
// DpdSystem's periodic box (wrap, min_image) is the list's.
//
// The grid is cell-sorted: one counting sort by cell lays the reference
// positions out in cell order, cells numbered x fastest, so the cells
// cx-1..cx+1 of one (y, z) row are one contiguous slot range. The build
// scans such ranges with tight branchless loops, 4 slots at a time on AVX2
// hosts, split over the idle cores by chunks of (y, z) rows
// (xmp/sched/lanes.hpp), and a two-pass counting sort (by upper, then
// stably by lower index) assembles the canonical CSR from the lanes' pairs
// in any order, without sorting any row. One build serves every box: the
// half stencil wraps a periodic axis only when it has 3 or more cells. A
// periodic axis of 1 or 2 cells has every cell adjacent to every other,
// so it is walked without the wrap and each cell pair is still visited
// once; the separations still take the minimum image.
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
// list instead of discarding it. Removal only records the index map of
// DpdSystem::remove_particles' lane compaction (on_remap, which only
// removal calls; a relayout invalidates), composed with any map already
// pending. The next ensure() runs the skin check on the survivors through
// that map: a rebuild drops it, and a kept list is compacted through it
// then, CSR and reference positions, with the grid's slot arrays compacted
// in place (survivors keep their reference positions and so their cells).
// About half the passes after a removal rebuild anyway, so the compaction
// they would discard is never done. Particles appended since the last
// ensure() are merged in with every partner j whose *reference* position
// lies within rc + skin, which is exactly what a full build at the same
// reference positions would list.
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
#include <utility>
#include <vector>

#include "dpd/soa.hpp"
#include "dpd/types.hpp"

namespace dpd {

/// Default Verlet skin of both NeighborParams and DpdParams, chosen by
/// measurement (docs/PERF.md, `extra_dpd_pairs` "skin" rows).
inline constexpr double kDefaultSkin = 0.2;

struct NeighborParams {
  Vec3 box{20.0, 10.0, 10.0};
  std::array<bool, 3> periodic{true, true, false};
  double rc = 1.0;             ///< interaction cutoff
  double skin = kDefaultSkin;  ///< Verlet skin: list radius is rc + skin
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

  /// The Verlet rule: true when the list cannot serve `pos` — it is
  /// invalid, the skin is 0, `pos` holds fewer particles than are listed,
  /// or a listed particle has moved farther than skin/2 from its reference
  /// position. Reads through a pending removal map.
  bool stale(const SoA3& pos) const;

  /// Make the list valid for `pos`: reuse it unless stale(pos), rebuild
  /// otherwise. Particles appended to `pos` since the last call are merged
  /// into a reused list (full build for ghost-filtered lists).
  /// Returns true iff a full rebuild happened.
  bool ensure(const SoA3& pos);

  /// Drop the list (wholesale state reload).
  void invalidate() { valid_ = false; }
  /// Particle removal: new_index[i] is the new index of old particle i, or
  /// -1 if it was removed; survivors keep their relative order. Records the
  /// map, composed with one still pending, for the next ensure() to apply
  /// to a kept list or drop with a rebuilt one; until then offsets() and
  /// neighbors() still hold the old indices, and query() maps through it.
  /// A ghost-filtered list is invalidated instead.
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
  /// Removal maps applied to a kept list, and maps dropped by a rebuild.
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t remaps_dropped() const { return remaps_dropped_; }
  std::size_t pair_count() const { return neighbors_.size(); }

  /// CSR half list: pairs of particle i live in
  /// neighbors_[offsets()[i] .. offsets()[i+1]), sorted ascending, j > i.
  const std::vector<std::size_t>& offsets() const { return offsets_; }
  const std::vector<std::uint32_t>& neighbors() const { return neighbors_; }

  /// Minimum-image displacement a -> b under the configured periodicity.
  Vec3 min_image(const Vec3& a, const Vec3& b) const {
    Vec3 d = b - a;
    if (prm_.periodic[0]) d.x = min_image_1d(d.x, prm_.box.x);
    if (prm_.periodic[1]) d.y = min_image_1d(d.y, prm_.box.y);
    if (prm_.periodic[2]) d.z = min_image_1d(d.z, prm_.box.z);
    return d;
  }
  /// Wrap p into the box along the periodic axes.
  void wrap(Vec3& p) const {
    if (prm_.periodic[0]) p.x = wrap_1d(p.x, prm_.box.x);
    if (prm_.periodic[1]) p.y = wrap_1d(p.y, prm_.box.y);
    if (prm_.periodic[2]) p.z = wrap_1d(p.z, prm_.box.z);
  }

  /// Visit every interacting pair (r < rc at *current* positions) once:
  /// fn(i, j, dr = xj - xi minimum image, r). Requires a list ensure()d
  /// against `pos` since the last removal.
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
  /// the grid bins reference positions. A pending removal map takes each
  /// binned particle to its current index and skips the removed ones.
  /// Particles appended since the last ensure() are not binned yet and are
  /// scanned directly. The caller must have ensure()d the list against the
  /// same position array.
  template <class Fn>
  void query(const SoA3& pos, const Vec3& p, double cutoff, Fn&& fn) const {
    const double c2 = cutoff * cutoff;
    auto visit = [&](std::size_t j) {
      const Vec3 dr = min_image(p, pos[j]);
      const double r2 = dr.norm2();
      if (r2 <= c2) fn(j, dr, r2);
    };
    const std::size_t n0 = listed();
    if (!valid_ || pos.size() < n0) {
      for (std::size_t j = 0; j < pos.size(); ++j) visit(j);
      return;
    }
    const double pad = cutoff + 0.5 * prm_.skin;
    if (remap_pending_)
      for_each_binned_near(p, pad, [&](std::size_t i) {
        if (remap_[i] >= 0) visit(static_cast<std::size_t>(remap_[i]));
      });
    else
      for_each_binned_near(p, pad, visit);
    for (std::size_t j = n0; j < pos.size(); ++j) visit(j);
  }

private:
  /// Listed particles in the current indexing: the survivors of a pending
  /// removal map come first, in order, then the pending appended tail.
  std::size_t listed() const { return remap_pending_ ? live_ : ref_pos_.size(); }
  void build(const SoA3& pos);
  /// Apply the pending removal map to the kept list: the CSR and reference
  /// positions, and with `grid` the cell grid's slot arrays (skipped when
  /// an append re-bins it next).
  void compact(bool grid);
  /// Merge particles [ref_pos_.size(), pos.size()) into the reused list.
  void append(const SoA3& pos);
  /// Counting-sort every reference position into the cell-sorted grid
  /// (build, compaction and append all re-bin through here).
  void rebin();
  /// One lane's candidate pairs as (lower, upper) index: the first `count`
  /// entries of `pairs`, whose size only grows because the scan writes
  /// ahead of its count.
  struct alignas(64) ScanLane {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    std::size_t count = 0;
    /// Per particle: the lane's pairs with it as the lower index, and with
    /// it as the upper one (then the lane's cursor into that bucket).
    std::vector<std::uint32_t> lower_count, upper_at;
    /// Counts the first `count` pairs by lower and by upper index.
    void count_pairs(std::size_t n);
  };
  /// Candidate scan over the half stencil from the cells of (y, z) rows
  /// [r_lo, r_hi) (row cz * ncy + cy): appends every pair within rc + skin
  /// to the lane's pairs. Px, Py, Pz select the minimum image; the stencil
  /// wraps only the periodic axes of 3 or more cells.
  template <bool Px, bool Py, bool Pz>
  void scan_rows(std::size_t r_lo, std::size_t r_hi, ScanLane& lane) const;
  /// First (y, z) row of a scan chunk: the rows split on particle counts.
  std::size_t chunk_first_row(std::size_t chunk, std::size_t chunks) const;
  /// Canonical CSR of n rows from the counted pairs of the first `lanes`
  /// scan lanes.
  void assemble_csr(std::size_t n, int lanes);

  /// Cells within `reach` of cell `base` along an axis of n cells, as at
  /// most two ascending runs [lo[k], hi[k]] holding each cell at most once:
  /// a periodic wrap splits the run, a non-periodic face clips it.
  struct AxisRuns {
    int count = 0;
    int lo[2] = {0, 0}, hi[2] = {0, 0};
    void add(int l, int h) {
      lo[count] = l;
      hi[count++] = h;
    }
  };
  static AxisRuns axis_runs(int base, int reach, int n, bool per) {
    AxisRuns r;
    const int lo = base - reach, hi = base + reach;
    if (!per) {
      r.add(std::max(lo, 0), std::min(hi, n - 1));
    } else if (2 * reach + 1 >= n) {
      r.add(0, n - 1);
    } else if (lo < 0) {
      r.add(0, hi);
      r.add(lo + n, n - 1);
    } else if (hi >= n) {
      r.add(0, hi - n);
      r.add(lo, n - 1);
    } else {
      r.add(lo, hi);
    }
    return r;
  }

  /// Cells an axis of n cells of size cs needs to cover distance `pad`,
  /// clamped in double so a huge or non-finite pad cannot overflow the cast.
  static int reach_cells(double pad, double cs, int n) {
    const double r = std::ceil(pad / cs);
    if (!(r > 0.0)) return 0;
    return r < n ? static_cast<int>(r) : n;
  }

  std::size_t row_start(int cy, int cz) const {
    return (static_cast<std::size_t>(cz) * static_cast<std::size_t>(ncy_) +
            static_cast<std::size_t>(cy)) *
           static_cast<std::size_t>(ncx_);
  }

  /// fn(j) for every binned particle j in the grid cells that can hold a
  /// reference position within `pad` of point p. Allocates nothing.
  template <class Fn>
  void for_each_binned_near(const Vec3& p, double pad, Fn&& fn) const {
    Vec3 q = p;
    wrap(q);
    const AxisRuns rx = axis_runs(cell_coord(q.x, prm_.box.x, ncx_),
                                  reach_cells(pad, csx_, ncx_), ncx_, prm_.periodic[0]);
    const AxisRuns ry = axis_runs(cell_coord(q.y, prm_.box.y, ncy_),
                                  reach_cells(pad, csy_, ncy_), ncy_, prm_.periodic[1]);
    const AxisRuns rz = axis_runs(cell_coord(q.z, prm_.box.z, ncz_),
                                  reach_cells(pad, csz_, ncz_), ncz_, prm_.periodic[2]);
    for (int a = 0; a < rz.count; ++a)
      for (int cz = rz.lo[a]; cz <= rz.hi[a]; ++cz)
        for (int b = 0; b < ry.count; ++b)
          for (int cy = ry.lo[b]; cy <= ry.hi[b]; ++cy) {
            const std::size_t row = row_start(cy, cz);
            for (int c = 0; c < rx.count; ++c) {
              const std::uint32_t end = cell_start_[row + static_cast<std::size_t>(rx.hi[c]) + 1];
              for (std::uint32_t s = cell_start_[row + static_cast<std::size_t>(rx.lo[c])];
                   s < end; ++s)
                fn(static_cast<std::size_t>(slot_id_[s]));
            }
          }
  }

  /// Cell of coordinate v along an axis of n cells spanning [0, L). Clamped
  /// in double before the cast: a coordinate beyond a non-periodic face (or
  /// +inf) lands in the edge cell, NaN in cell 0.
  static int cell_coord(double v, double L, int n) {
    const double c = v / L * n;
    if (!(c >= 0.0)) return 0;
    return c < n ? static_cast<int>(c) : n - 1;
  }

  NeighborParams prm_;
  bool valid_ = false;

  // optional decomposition pair filter (see set_pair_filter)
  const std::vector<char>* ghost_ = nullptr;

  // Cell-sorted grid over the reference positions, cells numbered x
  // fastest: cell c owns slots [cell_start_[c], cell_start_[c+1]) of
  // binned_ (the reference positions in cell order) and of slot_id_ (their
  // particle indices, ascending within a cell). binned_ghost_ is the pair
  // filter mask in slot order (filtered builds only).
  int ncx_ = 0, ncy_ = 0, ncz_ = 0;
  double csx_ = 0.0, csy_ = 0.0, csz_ = 0.0;
  std::vector<std::uint32_t> cell_start_, slot_id_;
  SoA3 binned_;
  std::vector<char> binned_ghost_;

  /// Reference positions: at build time, or at append time for particles
  /// merged later (rebuild trigger; the list holds every pair within
  /// rc + skin of each other here).
  SoA3 ref_pos_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> neighbors_;

  // Pending removal (on_remap): remap_[i] is the current index of listed
  // particle i, or -1 once removed; the live_ survivors hold the current
  // indices [0, live_) in order. The list, grid and reference positions
  // keep the old indices until ensure() compacts or rebuilds.
  bool remap_pending_ = false;
  std::vector<long> remap_;
  std::size_t live_ = 0;

  // Scratch reused across calls: each particle's cell (rebin); each scan
  // lane's kept candidate pairs and their counts by index, sized once per
  // lane count; the lower indices bucketed by upper index with each
  // bucket's end (first CSR pass) — 12 B per listed pair in all; and the
  // pairs an append merges.
  std::vector<std::uint32_t> cell_of_;
  std::vector<ScanLane> scan_lanes_;
  std::vector<std::uint32_t> by_upper_;
  std::vector<std::size_t> upper_end_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> new_pairs_;

  std::uint64_t rebuilds_ = 0, reuses_ = 0, version_ = 0;
  std::uint64_t compactions_ = 0, remaps_dropped_ = 0;
};

}  // namespace dpd
