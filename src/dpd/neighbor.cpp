#include "dpd/neighbor.hpp"

#include <stdexcept>
#include <type_traits>

#include "telemetry/registry.hpp"

namespace dpd {

namespace {

using IndexPair = std::pair<std::uint32_t, std::uint32_t>;

/// What a candidate scan reads: the cell-ordered reference lanes, their
/// particle indices and pair-filter mask, the box and the list radius.
struct ScanLanes {
  const double* x;
  const double* y;
  const double* z;
  const std::uint32_t* id;
  const char* ghost;
  double lx, ly, lz, rcut2;
};

/// Writes (lower, upper) for every slot s in [lo, hi) within rc + skin of
/// particle i at (xi, yi, zi) and returns the new end. Branchless: each
/// candidate is written, and the cursor advances only past kept ones. The
/// separation is min_image's arithmetic (subtract, then the per-axis
/// select), so it is bitwise the one every other path computes. With Filter
/// (i is a ghost) only owned partners are kept.
template <bool Px, bool Py, bool Pz, bool Filter>
IndexPair* scan_range(const ScanLanes& g, std::size_t lo, std::size_t hi, double xi, double yi,
                      double zi, std::uint32_t i, IndexPair* out) {
  for (std::size_t s = lo; s < hi; ++s) {
    double dx = g.x[s] - xi;
    double dy = g.y[s] - yi;
    double dz = g.z[s] - zi;
    if constexpr (Px) dx = min_image_1d(dx, g.lx);
    if constexpr (Py) dy = min_image_1d(dy, g.ly);
    if constexpr (Pz) dz = min_image_1d(dz, g.lz);
    // lower/upper by masking: i < j is a coin flip within a cell, so a
    // branch (which compilers emit even for std::min/max here) mispredicts
    const std::uint32_t j = g.id[s];
    const std::uint32_t swap = (i ^ j) & (0u - static_cast<std::uint32_t>(j < i));
    *out = {i ^ swap, j ^ swap};
    bool keep = dx * dx + dy * dy + dz * dz < g.rcut2;
    if constexpr (Filter) keep &= g.ghost[s] == 0;
    out += keep;
  }
  return out;
}

}  // namespace

void NeighborList::configure(const NeighborParams& p) {
  if (!(p.rc > 0.0) || !(p.skin >= 0.0)) throw std::invalid_argument("NeighborList: rc/skin");
  prm_ = p;
  // cell grid with cells of size >= rc + skin
  const double rcut = p.rc + p.skin;
  ncx_ = std::max(1, static_cast<int>(p.box.x / rcut));
  ncy_ = std::max(1, static_cast<int>(p.box.y / rcut));
  ncz_ = std::max(1, static_cast<int>(p.box.z / rcut));
  csx_ = p.box.x / ncx_;
  csy_ = p.box.y / ncy_;
  csz_ = p.box.z / ncz_;
  // A periodic dimension with fewer than 3 cells breaks the half stencil's
  // visit-each-pair-once guarantee; such tiny boxes enumerate directly (the
  // grid stays usable for point queries, which visit each cell once).
  degenerate_ = (p.periodic[0] && ncx_ < 3) || (p.periodic[1] && ncy_ < 3) ||
                (p.periodic[2] && ncz_ < 3);
  invalidate();
}

bool NeighborList::ensure(const SoA3& pos) {
  const std::size_t n0 = ref_pos_.size();
  if (valid_ && pos.size() >= n0 && prm_.skin > 0.0) {
    // Verlet criterion: the list is a superset of the interacting pairs as
    // long as no listed particle has moved farther than skin/2 from its
    // reference position.
    const double lim2 = 0.25 * prm_.skin * prm_.skin;
    bool ok = true;
    for (std::size_t i = 0; ok && i < n0; ++i)
      if (min_image(ref_pos_[i], pos[i]).norm2() > lim2) ok = false;
    // the direct enumeration and the pair filter have no incremental form
    if (ok && (pos.size() == n0 || (!degenerate_ && !ghost_))) {
      if (pos.size() > n0) append(pos);
      ++reuses_;
      telemetry::count("dpd.nlist.reuse");
      return false;
    }
  }
  build(pos);
  valid_ = true;
  ++rebuilds_;
  ++version_;
  telemetry::count("dpd.nlist.rebuild");
  return true;
}

void NeighborList::on_remap(const std::vector<long>& new_index) {
  const std::size_t n0 = ref_pos_.size();
  if (!valid_ || ghost_ || new_index.size() < n0) {
    invalidate();
    return;
  }
  telemetry::ScopedPhase phase("dpd.nlist.patch");
  // In-place compaction. Row i is read before any write can reach its
  // slots: the write cursors w (rows) and out (entries) never pass the read
  // cursors. Particles appended after the last ensure() sit past n0 and map
  // past the survivors, so they stay a pending tail.
  std::size_t w = 0, out = 0;
  for (std::size_t i = 0; i < n0; ++i) {
    const std::size_t lo = offsets_[i], hi = offsets_[i + 1];
    if (new_index[i] < 0) continue;
    offsets_[w] = out;
    for (std::size_t k = lo; k < hi; ++k) {
      const long j = new_index[neighbors_[k]];
      if (j >= 0) neighbors_[out++] = static_cast<std::uint32_t>(j);
    }
    ref_pos_.set(w, ref_pos_[i]);
    ++w;
  }
  offsets_[w] = out;
  offsets_.resize(w + 1);
  neighbors_.resize(out);
  ref_pos_.resize(w);
  rebin();
  ++version_;
  telemetry::count("dpd.nlist.compact");
}

void NeighborList::rebin() {
  // Counting sort by cell. Slots are filled in ascending particle index, so
  // each cell lists its particles ascending.
  const std::size_t n = ref_pos_.size();
  const std::size_t ncell = static_cast<std::size_t>(ncx_) * static_cast<std::size_t>(ncy_) *
                            static_cast<std::size_t>(ncz_);
  cell_of_.resize(n);
  cell_start_.assign(ncell + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 p = ref_pos_[i];
    wrap(p);
    const std::size_t c = row_start(cell_coord(p.y, prm_.box.y, ncy_),
                                    cell_coord(p.z, prm_.box.z, ncz_)) +
                          static_cast<std::size_t>(cell_coord(p.x, prm_.box.x, ncx_));
    cell_of_[i] = static_cast<std::uint32_t>(c);
    ++cell_start_[c + 1];
  }
  for (std::size_t c = 0; c < ncell; ++c) cell_start_[c + 1] += cell_start_[c];
  slot_id_.resize(n);
  binned_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = cell_start_[cell_of_[i]]++;
    slot_id_[s] = static_cast<std::uint32_t>(i);
    binned_.set(s, ref_pos_[i]);
  }
  // cell_start_[c] now ends cell c: shift back to the starts
  std::copy_backward(cell_start_.begin(), cell_start_.end() - 1, cell_start_.end());
  cell_start_[0] = 0;
}

void NeighborList::append(const SoA3& pos) {
  telemetry::ScopedPhase phase("dpd.nlist.patch");
  const double rcut = prm_.rc + prm_.skin;
  const double rcut2 = rcut * rcut;
  const std::size_t n0 = ref_pos_.size(), n = pos.size();
  // A new particle's current position becomes its reference.
  for (std::size_t k = n0; k < n; ++k) ref_pos_.push_back(pos[k]);
  rebin();
  // Each new pair is found once, from its higher member k, against every
  // j < k whose reference lies within rc + skin — the pairs a full build at
  // these reference positions would list. Testing the reference rather than
  // the current position of j is what keeps the skin/2 guarantee exact.
  auto& pairs = new_pairs_;
  pairs.clear();
  for (std::size_t k = n0; k < n; ++k) {
    const Vec3 pk = ref_pos_[k];
    for_each_binned_near(pk, rcut, [&](std::size_t j) {
      if (j < k && min_image(pk, ref_pos_[j]).norm2() < rcut2)
        pairs.emplace_back(static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(k));
    });
  }
  std::sort(pairs.begin(), pairs.end());

  // Merge in place, back to front. Every new partner has a larger index
  // than any old one, so it goes at the end of its row's run and the runs
  // stay sorted; rows n0..n-1 start empty.
  std::size_t w = neighbors_.size() + pairs.size();  // write cursor, never below the read one
  std::size_t p = pairs.size();
  std::size_t hi = offsets_[n0];
  neighbors_.resize(w);
  offsets_.resize(n + 1, hi);
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t lo = offsets_[i];
    offsets_[i + 1] = w;
    while (p > 0 && pairs[p - 1].first == i) neighbors_[--w] = pairs[--p].second;
    for (std::size_t k = hi; k-- > lo;) neighbors_[--w] = neighbors_[k];
    hi = lo;
  }
  ++version_;
  telemetry::count("dpd.nlist.append", static_cast<double>(n - n0));
}

template <bool Px, bool Py, bool Pz>
std::size_t NeighborList::scan_cells() {
  // Half stencil: cell cx+1 of the own (y, z) row, and cells cx-1..cx+1 of
  // the four rows at these (dy, dz). The other four rows are their mirror
  // images, so every pair of adjacent cells is scanned from one side only.
  static constexpr int kRows[4][2] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};
  struct Range {
    std::size_t lo, hi;
  };
  // neighbour row coordinate, or -1 past a non-periodic face
  auto wrap_axis = [](int c, int n, bool per) {
    if (c < 0) return per ? c + n : -1;
    if (c >= n) return per ? c - n : -1;
    return c;
  };
  const double rcut = prm_.rc + prm_.skin;
  const ScanLanes g{binned_.xs().data(), binned_.ys().data(), binned_.zs().data(),
                    slot_id_.data(),     binned_ghost_.data(), prm_.box.x,
                    prm_.box.y,          prm_.box.z,          rcut * rcut};
  auto& pairs = pair_scratch_;
  std::size_t m = 0;
  for (int cz = 0; cz < ncz_; ++cz)
    for (int cy = 0; cy < ncy_; ++cy) {
      const std::size_t row = row_start(cy, cz);
      std::size_t nrow[4];
      int rows = 0;
      for (const auto& o : kRows) {
        const int y = wrap_axis(cy + o[0], ncy_, Py), z = wrap_axis(cz + o[1], ncz_, Pz);
        if (y >= 0 && z >= 0) nrow[rows++] = row_start(y, z);
      }
      for (int cx = 0; cx < ncx_; ++cx) {
        const std::size_t cell = row + static_cast<std::size_t>(cx);
        // Slot ranges every particle of this cell scans besides its own
        // tail: one or two per neighbour row, and with a periodic wrap in x
        // the last cell's cx+1, which is the row's first.
        Range ranges[9];
        int nr = 0;
        std::size_t cand = 0;
        auto add = [&](std::size_t lo, std::size_t hi) {
          ranges[nr++] = {lo, hi};
          cand += hi - lo;
        };
        const AxisRuns rx = axis_runs(cx, 1, ncx_, Px);
        for (int k = 0; k < rows; ++k)
          for (int r = 0; r < rx.count; ++r)
            add(cell_start_[nrow[k] + static_cast<std::size_t>(rx.lo[r])],
                cell_start_[nrow[k] + static_cast<std::size_t>(rx.hi[r]) + 1]);
        // own tail: the particles after i in this cell, running on into
        // cell cx+1 when it is the next cell in memory
        std::size_t tail_end = cell_start_[cell + 1];
        if (cx + 1 < ncx_)
          tail_end = cell_start_[cell + 2];
        else if (Px)
          add(cell_start_[row], cell_start_[row + 1]);

        for (std::size_t s = cell_start_[cell]; s < cell_start_[cell + 1]; ++s) {
          // grow in small steps: resize touches every element it adds
          const std::size_t need = m + cand + (tail_end - s - 1);
          if (pairs.size() < need) pairs.resize(need + need / 8);
          const double xi = g.x[s], yi = g.y[s], zi = g.z[s];
          const std::uint32_t i = g.id[s];
          auto emit = [&](auto filter) {
            constexpr bool F = decltype(filter)::value;
            IndexPair* out =
                scan_range<Px, Py, Pz, F>(g, s + 1, tail_end, xi, yi, zi, i, pairs.data() + m);
            for (int k = 0; k < nr; ++k)
              out = scan_range<Px, Py, Pz, F>(g, ranges[k].lo, ranges[k].hi, xi, yi, zi, i, out);
            return out;
          };
          IndexPair* end = ghost_ && g.ghost[s] ? emit(std::true_type{}) : emit(std::false_type{});
          m = static_cast<std::size_t>(end - pairs.data());
        }
      }
    }
  return m;
}

void NeighborList::assemble_csr(std::size_t n, std::size_t m) {
  telemetry::ScopedPhase phase("dpd.nlist.csr");
  // Two-pass LSD counting sort: bucket the lower indices by upper index,
  // then hand the buckets out in ascending upper index to rows by lower
  // index. The second pass is stable, so every run comes out ascending —
  // the canonical order that makes force accumulation independent of the
  // build moment — and no row is sorted.
  const IndexPair* pairs = pair_scratch_.data();
  offsets_.assign(n + 1, 0);
  upper_end_.assign(n + 1, 0);
  for (std::size_t k = 0; k < m; ++k) {
    ++offsets_[pairs[k].first + 1];
    ++upper_end_[pairs[k].second + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    offsets_[i + 1] += offsets_[i];
    upper_end_[i + 1] += upper_end_[i];
  }
  by_upper_.resize(m);
  for (std::size_t k = 0; k < m; ++k) by_upper_[upper_end_[pairs[k].second]++] = pairs[k].first;
  // upper_end_[h] now ends bucket h, and the buckets are contiguous
  neighbors_.resize(m);
  std::size_t k = 0;
  for (std::size_t h = 0; h < n; ++h)
    for (; k < upper_end_[h]; ++k)
      neighbors_[offsets_[by_upper_[k]]++] = static_cast<std::uint32_t>(h);
  // offsets_[i] now ends row i: shift back to the starts
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

void NeighborList::build(const SoA3& pos) {
  telemetry::ScopedPhase phase("dpd.nlist.build");
  const std::size_t n = pos.size();
  if (ghost_ && ghost_->size() < n)
    throw std::invalid_argument("NeighborList: pair-filter mask smaller than position array");
  ref_pos_ = pos;
  rebin();
  if (ghost_) {
    binned_ghost_.resize(n);
    for (std::size_t s = 0; s < n; ++s) binned_ghost_[s] = (*ghost_)[slot_id_[s]];
  }

  std::size_t m = 0;
  {
    telemetry::ScopedPhase scan("dpd.nlist.scan");
    if (degenerate_) {
      const double rcut = prm_.rc + prm_.skin;
      auto& pairs = pair_scratch_;
      pairs.clear();
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
          // decomposition filter: no local force needs a both-ghost pair
          if (ghost_ && (*ghost_)[i] && (*ghost_)[j]) continue;
          if (min_image(pos[i], pos[j]).norm2() < rcut * rcut)
            pairs.emplace_back(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
        }
      m = pairs.size();
    } else {
      using Scan = std::size_t (NeighborList::*)();
      static constexpr Scan kScan[8] = {
          &NeighborList::scan_cells<false, false, false>, &NeighborList::scan_cells<true, false, false>,
          &NeighborList::scan_cells<false, true, false>,  &NeighborList::scan_cells<true, true, false>,
          &NeighborList::scan_cells<false, false, true>,  &NeighborList::scan_cells<true, false, true>,
          &NeighborList::scan_cells<false, true, true>,   &NeighborList::scan_cells<true, true, true>};
      m = (this->*kScan[prm_.periodic[0] + 2 * prm_.periodic[1] + 4 * prm_.periodic[2]])();
    }
  }
  assemble_csr(n, m);
}

}  // namespace dpd
