#include "dpd/neighbor.hpp"

#include <immintrin.h>

#include <atomic>
#include <span>
#include <stdexcept>

#include "la/simd.hpp"
#include "telemetry/registry.hpp"
#include "xmp/sched/lanes.hpp"

namespace dpd {

namespace {

using IndexPair = std::pair<std::uint32_t, std::uint32_t>;
// scan_range_avx2 stores four pairs as one 32-byte block
static_assert(sizeof(IndexPair) == 2 * sizeof(std::uint32_t));

/// What a candidate scan reads: the cell-ordered reference lanes, their
/// particle indices and pair-filter mask (null when unfiltered), the box
/// and the list radius.
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
/// (i is a ghost) only owned partners are kept. The fallback of
/// scan_range_avx2.
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

/// Slots the 4-wide scan reads per block; it also stores whole blocks, so
/// a pair buffer keeps this many entries of room past the candidates.
constexpr std::size_t kBlock = 4;

/// For each 4-bit keep mask, the dword permutation that moves the kept
/// (lower, upper) pairs of a block to its front in order, and their count.
struct PackTable {
  alignas(32) std::int32_t idx[16][8];
  std::uint8_t kept[16];
};
constexpr PackTable make_pack_table() {
  PackTable t{};
  for (int m = 0; m < 16; ++m) {
    int w = 0;
    for (int l = 0; l < 4; ++l)
      if ((m >> l) & 1) {
        t.idx[m][2 * w] = 2 * l;
        t.idx[m][2 * w + 1] = 2 * l + 1;
        ++w;
      }
    t.kept[m] = static_cast<std::uint8_t>(w);
  }
  return t;
}
constexpr PackTable kPack = make_pack_table();

/// min_image_1d on 4 lanes: the same compares and the same add or subtract.
template <bool Per>
[[gnu::target("avx2")]] __m256d min_image_4(__m256d d, double L) {
  if constexpr (!Per) return d;
  const __m256d vl = _mm256_set1_pd(L);
  const __m256d gt = _mm256_cmp_pd(d, _mm256_set1_pd(0.5 * L), _CMP_GT_OQ);
  const __m256d lt = _mm256_cmp_pd(d, _mm256_set1_pd(-0.5 * L), _CMP_LT_OQ);
  return _mm256_blendv_pd(_mm256_blendv_pd(d, _mm256_add_pd(d, vl), lt), _mm256_sub_pd(d, vl),
                          gt);
}

/// scan_range four slots at a time: r2 is the scalar's (dx*dx + dy*dy) +
/// dz*dz, one rounding per operation (target avx2 without fma, so nothing
/// contracts), which keeps exactly the pairs scan_range keeps. A short
/// block loads masked; the kept pairs are left-packed through kPack and
/// stored as a whole block.
template <bool Px, bool Py, bool Pz, bool Filter>
[[gnu::target("avx2")]] IndexPair* scan_range_avx2(const ScanLanes& g, std::size_t lo,
                                                   std::size_t hi, double xi, double yi,
                                                   double zi, std::uint32_t i, IndexPair* out) {
  const __m256d vx = _mm256_set1_pd(xi), vy = _mm256_set1_pd(yi), vz = _mm256_set1_pd(zi);
  const __m256d rcut2 = _mm256_set1_pd(g.rcut2);
  const __m128i vi = _mm_set1_epi32(static_cast<int>(i));
  for (std::size_t s = lo; s < hi; s += kBlock) {
    __m256d x, y, z;
    __m128i id;
    unsigned live = 0xF;
    if (hi - s >= kBlock) {
      x = _mm256_loadu_pd(g.x + s);
      y = _mm256_loadu_pd(g.y + s);
      z = _mm256_loadu_pd(g.z + s);
      id = _mm_loadu_si128(reinterpret_cast<const __m128i*>(g.id + s));
    } else {
      const int left = static_cast<int>(hi - s);
      const __m256i m =
          _mm256_cmpgt_epi64(_mm256_set1_epi64x(left), _mm256_setr_epi64x(0, 1, 2, 3));
      x = _mm256_maskload_pd(g.x + s, m);
      y = _mm256_maskload_pd(g.y + s, m);
      z = _mm256_maskload_pd(g.z + s, m);
      id = _mm_maskload_epi32(reinterpret_cast<const int*>(g.id + s),
                              _mm_cmpgt_epi32(_mm_set1_epi32(left), _mm_setr_epi32(0, 1, 2, 3)));
      live = (1u << left) - 1;
    }
    const __m256d dx = min_image_4<Px>(_mm256_sub_pd(x, vx), g.lx);
    const __m256d dy = min_image_4<Py>(_mm256_sub_pd(y, vy), g.ly);
    const __m256d dz = min_image_4<Pz>(_mm256_sub_pd(z, vz), g.lz);
    const __m256d r2 = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                                     _mm256_mul_pd(dz, dz));
    unsigned keep =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(r2, rcut2, _CMP_LT_OQ))) & live;
    if constexpr (Filter)
      for (unsigned l = 0; l < kBlock && s + l < hi; ++l)
        keep &= ~(static_cast<unsigned>(g.ghost[s + l] != 0) << l);
    const __m128i lower = _mm_min_epu32(vi, id), upper = _mm_max_epu32(vi, id);
    const __m256i pairs =
        _mm256_set_m128i(_mm_unpackhi_epi32(lower, upper), _mm_unpacklo_epi32(lower, upper));
    const __m256i perm = _mm256_load_si256(reinterpret_cast<const __m256i*>(kPack.idx[keep]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_permutevar8x32_epi32(pairs, perm));
    out += kPack.kept[keep];
  }
  return out;
}

/// The 4-wide scan needs AVX2; la::simd's detection also asks for FMA,
/// which every AVX2 host has.
bool scan_avx2() {
  static const bool avx2 = la::simd::detect() == la::simd::Isa::Avx2;
  return avx2;
}

struct SlotRange {
  std::size_t lo, hi;
};

/// One cell of the half-stencil scan: its slots [lo, hi), the end of the
/// own tail each of them scans past itself, and the nr neighbour ranges
/// (cand slots in all) every one of them scans.
struct CellScan {
  std::size_t lo, hi, tail_end;
  const SlotRange* ranges;
  int nr;
  std::size_t cand;
};

/// Grows a pair buffer in small steps (resize touches every element it adds).
[[gnu::noinline]] void grow_pairs(std::vector<IndexPair>& pairs, std::size_t need) {
  pairs.resize(need + need / 8);
}

/// Slot s's candidate scan: its own tail, then the neighbour ranges.
template <bool Avx2, bool Px, bool Py, bool Pz, bool Filter>
IndexPair* scan_slot(const ScanLanes& g, const CellScan& c, std::size_t s, IndexPair* out) {
  const double xi = g.x[s], yi = g.y[s], zi = g.z[s];
  const std::uint32_t i = g.id[s];
  auto range = [&](std::size_t lo, std::size_t hi) {
    if constexpr (Avx2)
      out = scan_range_avx2<Px, Py, Pz, Filter>(g, lo, hi, xi, yi, zi, i, out);
    else
      out = scan_range<Px, Py, Pz, Filter>(g, lo, hi, xi, yi, zi, i, out);
  };
  range(s + 1, c.tail_end);
  for (int k = 0; k < c.nr; ++k) range(c.ranges[k].lo, c.ranges[k].hi);
  return out;
}

/// Appends one cell's kept pairs to pairs[0, m) and returns the new count.
template <bool Avx2, bool Px, bool Py, bool Pz>
std::size_t scan_cell(const ScanLanes& g, const CellScan& c, std::vector<IndexPair>& pairs,
                      std::size_t m) {
  for (std::size_t s = c.lo; s < c.hi; ++s) {
    const std::size_t need = m + c.cand + (c.tail_end - s - 1) + kBlock;
    if (pairs.size() < need) grow_pairs(pairs, need);
    IndexPair* out = pairs.data() + m;
    out = g.ghost && g.ghost[s] ? scan_slot<Avx2, Px, Py, Pz, true>(g, c, s, out)
                                : scan_slot<Avx2, Px, Py, Pz, false>(g, c, s, out);
    m = static_cast<std::size_t>(out - pairs.data());
  }
  return m;
}

/// scan_cell with the 4-wide kernel, compiled for AVX2 and flattened so
/// the kernel inlines into the slot loop.
template <bool Px, bool Py, bool Pz>
[[gnu::target("avx2"), gnu::flatten]] std::size_t scan_cell_avx2(const ScanLanes& g,
                                                                 const CellScan& c,
                                                                 std::vector<IndexPair>& pairs,
                                                                 std::size_t m) {
  return scan_cell<true, Px, Py, Pz>(g, c, pairs, m);
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
  invalidate();
}

bool NeighborList::stale(const SoA3& pos) const {
  if (!valid_ || prm_.skin <= 0.0 || pos.size() < listed()) return true;
  // Verlet criterion: the list is a superset of the interacting pairs as
  // long as no listed particle has moved farther than skin/2 from its
  // reference position. Only survivors count: through a pending removal
  // map, listed particle i is now particle remap_[i], or gone.
  const double lim2 = 0.25 * prm_.skin * prm_.skin;
  for (std::size_t i = 0; i < ref_pos_.size(); ++i) {
    const long j = remap_pending_ ? remap_[i] : static_cast<long>(i);
    if (j >= 0 && min_image(ref_pos_[i], pos[static_cast<std::size_t>(j)]).norm2() > lim2)
      return true;
  }
  return false;
}

bool NeighborList::ensure(const SoA3& pos) {
  const std::size_t n0 = listed();
  // the pair filter has no incremental form
  if (!stale(pos) && (pos.size() == n0 || !ghost_)) {
    if (remap_pending_) compact(pos.size() == n0);
    if (pos.size() > n0) append(pos);
    ++reuses_;
    telemetry::count("dpd.nlist.reuse");
    return false;
  }
  if (remap_pending_) {
    // the rebuild lists the survivors afresh: the compaction is never done
    remap_pending_ = false;
    ++remaps_dropped_;
    telemetry::count("dpd.nlist.remap_dropped");
  }
  build(pos);
  valid_ = true;
  ++rebuilds_;
  ++version_;
  telemetry::count("dpd.nlist.rebuild");
  return true;
}

void NeighborList::on_remap(const std::vector<long>& new_index) {
  if (!valid_ || ghost_ || new_index.size() < listed()) {
    invalidate();
    return;
  }
  // Record the map, or compose it with the pending one. Particles appended
  // after the last ensure() sit past the survivors and map past them, so
  // they stay a pending tail.
  if (remap_pending_) {
    for (long& j : remap_)
      if (j >= 0) j = new_index[static_cast<std::size_t>(j)];
  } else {
    remap_.assign(new_index.begin(),
                  new_index.begin() + static_cast<std::ptrdiff_t>(ref_pos_.size()));
    remap_pending_ = true;
  }
  live_ = static_cast<std::size_t>(
      std::count_if(remap_.begin(), remap_.end(), [](long j) { return j >= 0; }));
}

void NeighborList::compact(bool grid) {
  telemetry::ScopedPhase phase("dpd.nlist.patch");
  // In-place compaction. Row i is read before any write can reach its
  // slots: the write cursors w (rows) and out (entries) never pass the read
  // cursors.
  const std::size_t n0 = ref_pos_.size();
  std::size_t w = 0, out = 0;
  for (std::size_t i = 0; i < n0; ++i) {
    const std::size_t lo = offsets_[i], hi = offsets_[i + 1];
    if (remap_[i] < 0) continue;
    offsets_[w] = out;
    for (std::size_t k = lo; k < hi; ++k) {
      const long j = remap_[neighbors_[k]];
      if (j >= 0) neighbors_[out++] = static_cast<std::uint32_t>(j);
    }
    ref_pos_.set(w, ref_pos_[i]);
    ++w;
  }
  offsets_[w] = out;
  offsets_.resize(w + 1);
  neighbors_.resize(out);
  ref_pos_.resize(w);
  if (grid) {
    // A survivor keeps its reference position, so its cell and its order
    // within the cell: drop the removed slots cell by cell, renumbered,
    // which is what re-binning the survivors would lay out.
    const std::size_t ncell = cell_start_.size() - 1;
    std::uint32_t s = cell_start_[0], ws = 0;
    for (std::size_t c = 0; c < ncell; ++c) {
      const std::uint32_t end = cell_start_[c + 1];
      cell_start_[c] = ws;
      for (; s < end; ++s) {
        const long j = remap_[slot_id_[s]];
        if (j < 0) continue;
        slot_id_[ws] = static_cast<std::uint32_t>(j);
        binned_.set(ws++, binned_[s]);
      }
    }
    cell_start_[ncell] = ws;
    slot_id_.resize(ws);
    binned_.resize(ws);
  }
  remap_pending_ = false;
  ++version_;
  ++compactions_;
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
void NeighborList::scan_rows(std::size_t r_lo, std::size_t r_hi, ScanLane& lane) const {
  // Half stencil: cell cx+1 of the own (y, z) row, and cells cx-1..cx+1 of
  // the four rows at these (dy, dz). The other four rows are their mirror
  // images, so every pair of adjacent cells is scanned from one side only.
  // A periodic axis of 1 or 2 cells is not wrapped: all its cells are
  // adjacent, and a wrap would reach some of them from both sides.
  static constexpr int kRows[4][2] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};
  const bool wx = Px && ncx_ >= 3, wy = Py && ncy_ >= 3, wz = Pz && ncz_ >= 3;
  // neighbour row coordinate, or -1 past a non-periodic face
  auto wrap_axis = [](int c, int n, bool per) {
    if (c < 0) return per ? c + n : -1;
    if (c >= n) return per ? c - n : -1;
    return c;
  };
  const double rcut = prm_.rc + prm_.skin;
  const ScanLanes g{binned_.xs().data(), binned_.ys().data(), binned_.zs().data(),
                    slot_id_.data(),     ghost_ ? binned_ghost_.data() : nullptr,
                    prm_.box.x,          prm_.box.y,
                    prm_.box.z,          rcut * rcut};
  std::size_t m = lane.count;
  for (std::size_t r = r_lo; r < r_hi; ++r) {
    const int cy = static_cast<int>(r % static_cast<std::size_t>(ncy_));
    const int cz = static_cast<int>(r / static_cast<std::size_t>(ncy_));
    const std::size_t row = row_start(cy, cz);
    std::size_t nrow[4];
    int rows = 0;
    for (const auto& o : kRows) {
      const int y = wrap_axis(cy + o[0], ncy_, wy), z = wrap_axis(cz + o[1], ncz_, wz);
      if (y >= 0 && z >= 0) nrow[rows++] = row_start(y, z);
    }
    for (int cx = 0; cx < ncx_; ++cx) {
      const std::size_t cell = row + static_cast<std::size_t>(cx);
      // Slot ranges every particle of this cell scans besides its own
      // tail: one or two per neighbour row, and with a periodic wrap in x
      // the last cell's cx+1, which is the row's first.
      SlotRange ranges[9];
      CellScan c{cell_start_[cell], cell_start_[cell + 1], cell_start_[cell + 1], ranges, 0, 0};
      auto add = [&](std::size_t lo, std::size_t hi) {
        ranges[c.nr++] = {lo, hi};
        c.cand += hi - lo;
      };
      const AxisRuns rx = axis_runs(cx, 1, ncx_, wx);
      for (int k = 0; k < rows; ++k)
        for (int q = 0; q < rx.count; ++q)
          add(cell_start_[nrow[k] + static_cast<std::size_t>(rx.lo[q])],
              cell_start_[nrow[k] + static_cast<std::size_t>(rx.hi[q]) + 1]);
      // own tail: the particles after i in this cell, running on into
      // cell cx+1 when it is the next cell in memory
      if (cx + 1 < ncx_)
        c.tail_end = cell_start_[cell + 2];
      else if (wx)
        add(cell_start_[row], cell_start_[row + 1]);
      m = scan_avx2() ? scan_cell_avx2<Px, Py, Pz>(g, c, lane.pairs, m)
                      : scan_cell<false, Px, Py, Pz>(g, c, lane.pairs, m);
    }
  }
  lane.count = m;
}

std::size_t NeighborList::chunk_first_row(std::size_t chunk, std::size_t chunks) const {
  // the first (y, z) row whose first slot is at or past chunk/chunks of them
  const std::size_t rows = static_cast<std::size_t>(ncy_) * static_cast<std::size_t>(ncz_);
  if (chunk >= chunks) return rows;
  const std::size_t target = slot_id_.size() * chunk / chunks;
  std::size_t lo = 0, hi = rows;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cell_start_[mid * static_cast<std::size_t>(ncx_)] < target)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

void NeighborList::ScanLane::count_pairs(std::size_t n) {
  lower_count.assign(n, 0);
  upper_at.assign(n, 0);
  for (std::size_t k = 0; k < count; ++k) {
    ++lower_count[pairs[k].first];
    ++upper_at[pairs[k].second];
  }
}

void NeighborList::assemble_csr(std::size_t n, int lanes) {
  telemetry::ScopedPhase phase("dpd.nlist.csr");
  // Two-pass LSD counting sort over the lanes' pairs: bucket the lower
  // indices by upper index, then hand the buckets out in ascending upper
  // index to rows by lower index. Every run comes out ascending — the
  // canonical order that makes force accumulation independent of the build
  // moment — from any input order, so neither the lanes' order nor the
  // number of lanes shows, and no row is sorted. Each scan lane counted its
  // own pairs; here the counts become the row offsets and, per lane, a
  // cursor into every bucket.
  const auto parts = std::span(scan_lanes_).first(static_cast<std::size_t>(lanes));
  offsets_.resize(n + 1);
  upper_end_.resize(n);
  offsets_[0] = 0;
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rows = 0;
    for (ScanLane& part : parts) {
      rows += part.lower_count[i];
      const std::uint32_t c = part.upper_at[i];
      part.upper_at[i] = static_cast<std::uint32_t>(m);
      m += c;
    }
    offsets_[i + 1] = offsets_[i] + rows;
    upper_end_[i] = m;
  }
  by_upper_.resize(m);
  for (ScanLane& part : parts)
    for (std::size_t k = 0; k < part.count; ++k)
      by_upper_[part.upper_at[part.pairs[k].second]++] = part.pairs[k].first;
  // upper_end_[h] ends bucket h, and the buckets are contiguous
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

  const int want = xmp::lanes::width();
  if (scan_lanes_.size() < static_cast<std::size_t>(want))
    scan_lanes_.resize(static_cast<std::size_t>(want));
  xmp::lanes::Pass pass;
  {
    telemetry::ScopedPhase scan("dpd.nlist.scan");
    // The (y, z) rows go out in chunks holding about equal shares of the
    // particles; each lane claims chunks as it goes and scans them into
    // its own pair buffer. Lane 0 takes whatever is left; a helper stops
    // at 5/4 of an even share, which bounds its buffer.
    using Scan = void (NeighborList::*)(std::size_t, std::size_t, ScanLane&) const;
    static constexpr Scan kScan[8] = {
        &NeighborList::scan_rows<false, false, false>, &NeighborList::scan_rows<true, false, false>,
        &NeighborList::scan_rows<false, true, false>,  &NeighborList::scan_rows<true, true, false>,
        &NeighborList::scan_rows<false, false, true>,  &NeighborList::scan_rows<true, false, true>,
        &NeighborList::scan_rows<false, true, true>,   &NeighborList::scan_rows<true, true, true>};
    const Scan scan_fn = kScan[prm_.periodic[0] + 2 * prm_.periodic[1] + 4 * prm_.periodic[2]];
    const std::size_t chunks = static_cast<std::size_t>(xmp::lanes::kChunksPerLane * want);
    std::atomic<std::size_t> unclaimed{0};
    auto body = [&](int lane, int of) {
      const std::size_t most =
          lane == 0 ? chunks
                    : (5 * chunks + 4 * static_cast<std::size_t>(of) - 1) /
                          (4 * static_cast<std::size_t>(of));
      ScanLane& out = scan_lanes_[static_cast<std::size_t>(lane)];
      out.count = 0;
      for (std::size_t k = 0; k < most; ++k) {
        const std::size_t c = unclaimed++;
        if (c >= chunks) break;
        (this->*scan_fn)(chunk_first_row(c, chunks), chunk_first_row(c + 1, chunks), out);
      }
      out.count_pairs(n);
    };
    pass = xmp::lanes::run(want, body);
    if (pass.lanes > 1) telemetry::count("dpd.lanes.wait_us", 1e6 * pass.wait_s);
  }
  assemble_csr(n, pass.lanes);
}

}  // namespace dpd
