#include "dpd/neighbor.hpp"

#include <stdexcept>

#include "telemetry/registry.hpp"

namespace dpd {

void NeighborList::configure(const NeighborParams& p) {
  if (p.rc <= 0.0 || p.skin < 0.0) throw std::invalid_argument("NeighborList: rc/skin");
  prm_ = p;
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

void NeighborList::bin(std::size_t i) {
  Vec3 p = ref_pos_[i];
  wrap(p);
  const int cx = cell_coord(p.x, prm_.box.x, ncx_);
  const int cy = cell_coord(p.y, prm_.box.y, ncy_);
  const int cz = cell_coord(p.z, prm_.box.z, ncz_);
  const std::size_t c =
      (static_cast<std::size_t>(cz) * ncy_ + cy) * static_cast<std::size_t>(ncx_) + cx;
  cell_next_[i] = cell_head_[c];
  cell_head_[c] = static_cast<long>(i);
}

void NeighborList::rebin() {
  cell_head_.assign(static_cast<std::size_t>(ncx_) * ncy_ * ncz_, -1);
  cell_next_.assign(ref_pos_.size(), -1);
  for (std::size_t i = 0; i < ref_pos_.size(); ++i) bin(i);
}

void NeighborList::append(const SoA3& pos) {
  telemetry::ScopedPhase phase("dpd.nlist.patch");
  const double rcut = prm_.rc + prm_.skin;
  const double rcut2 = rcut * rcut;
  const std::size_t n0 = ref_pos_.size(), n = pos.size();
  // A new particle's current position becomes its reference.
  cell_next_.resize(n, -1);
  for (std::size_t k = n0; k < n; ++k) {
    ref_pos_.push_back(pos[k]);
    bin(k);
  }
  // Each new pair is found once, from its higher member k, against every
  // j < k whose reference lies within rc + skin — the pairs a full build at
  // these reference positions would list. Testing the reference rather than
  // the current position of j is what keeps the skin/2 guarantee exact.
  auto& pairs = pair_scratch_;
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

void NeighborList::build(const SoA3& pos) {
  telemetry::ScopedPhase phase("dpd.nlist.build");
  const double rcut = prm_.rc + prm_.skin;
  const double rcut2 = rcut * rcut;
  const std::size_t n = pos.size();
  ref_pos_ = pos;
  if (ghost_ && ghost_->size() < n)
    throw std::invalid_argument("NeighborList: pair-filter mask smaller than position array");

  // cell grid with cells of size >= rcut
  ncx_ = std::max(1, static_cast<int>(prm_.box.x / rcut));
  ncy_ = std::max(1, static_cast<int>(prm_.box.y / rcut));
  ncz_ = std::max(1, static_cast<int>(prm_.box.z / rcut));
  csx_ = prm_.box.x / ncx_;
  csy_ = prm_.box.y / ncy_;
  csz_ = prm_.box.z / ncz_;
  rebin();

  // A periodic dimension with fewer than 3 cells breaks the half-stencil's
  // visit-each-pair-once guarantee; enumerate directly for such tiny boxes
  // (the grid stays usable for point queries, which dedupe cells).
  degenerate_ = (prm_.periodic[0] && ncx_ < 3) || (prm_.periodic[1] && ncy_ < 3) ||
                (prm_.periodic[2] && ncz_ < 3);

  // Decomposition filter: drop both-ghost pairs (neither member is owned
  // here, so no local force needs them).
  auto keep = [this](std::uint32_t a, std::uint32_t b) {
    return !ghost_ || !((*ghost_)[a] && (*ghost_)[b]);
  };

  auto& pairs = pair_scratch_;
  pairs.clear();
  if (degenerate_) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        const auto a = static_cast<std::uint32_t>(i), b = static_cast<std::uint32_t>(j);
        if (keep(a, b) && min_image(pos[i], pos[j]).norm2() < rcut2) pairs.emplace_back(a, b);
      }
  } else {
    // half stencil of neighbour cell offsets (13 + same cell)
    static constexpr int kOff[13][3] = {{1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},
                                        {1, -1, 0}, {1, 0, 1},  {1, 0, -1}, {0, 1, 1},
                                        {0, 1, -1}, {1, 1, 1},  {1, 1, -1}, {1, -1, 1},
                                        {1, -1, -1}};
    auto cell_of = [this](int cx, int cy, int cz) -> long {
      auto adjust = [](int c, int nc, bool per) -> int {
        if (c < 0) return per ? c + nc : -1;
        if (c >= nc) return per ? c - nc : -1;
        return c;
      };
      cx = adjust(cx, ncx_, prm_.periodic[0]);
      cy = adjust(cy, ncy_, prm_.periodic[1]);
      cz = adjust(cz, ncz_, prm_.periodic[2]);
      if (cx < 0 || cy < 0 || cz < 0) return -1;
      return (static_cast<long>(cz) * ncy_ + cy) * ncx_ + cx;
    };
    auto push = [&](long i, long j) {
      const auto ii = static_cast<std::size_t>(i), jj = static_cast<std::size_t>(j);
      const auto a = static_cast<std::uint32_t>(std::min(i, j));
      const auto b = static_cast<std::uint32_t>(std::max(i, j));
      if (keep(a, b) && min_image(pos[ii], pos[jj]).norm2() < rcut2) pairs.emplace_back(a, b);
    };
    for (int cz = 0; cz < ncz_; ++cz)
      for (int cy = 0; cy < ncy_; ++cy)
        for (int cx = 0; cx < ncx_; ++cx) {
          const long c = cell_of(cx, cy, cz);
          for (long i = cell_head_[static_cast<std::size_t>(c)]; i >= 0;
               i = cell_next_[static_cast<std::size_t>(i)])
            for (long j = cell_next_[static_cast<std::size_t>(i)]; j >= 0;
                 j = cell_next_[static_cast<std::size_t>(j)])
              push(i, j);
          for (const auto& o : kOff) {
            const long c2 = cell_of(cx + o[0], cy + o[1], cz + o[2]);
            if (c2 < 0 || c2 == c) continue;
            for (long i = cell_head_[static_cast<std::size_t>(c)]; i >= 0;
                 i = cell_next_[static_cast<std::size_t>(i)])
              for (long j = cell_head_[static_cast<std::size_t>(c2)]; j >= 0;
                   j = cell_next_[static_cast<std::size_t>(j)])
                push(i, j);
          }
        }
  }

  // CSR by lower index, each run sorted ascending: the canonical enumeration
  // order that makes force accumulation independent of the build moment.
  offsets_.assign(n + 1, 0);
  for (const auto& pr : pairs) ++offsets_[pr.first + 1];
  for (std::size_t i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];
  neighbors_.resize(pairs.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& pr : pairs) neighbors_[cursor[pr.first]++] = pr.second;
  for (std::size_t i = 0; i < n; ++i)
    std::sort(neighbors_.begin() + static_cast<long>(offsets_[i]),
              neighbors_.begin() + static_cast<long>(offsets_[i + 1]));
}

}  // namespace dpd
