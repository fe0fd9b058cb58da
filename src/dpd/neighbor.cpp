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
  if (valid_ && pos.size() == ref_pos_.size()) {
    // Verlet criterion: the list is a superset of the interacting pairs as
    // long as no particle has moved farther than skin/2 since the build.
    const double lim2 = 0.25 * prm_.skin * prm_.skin;
    bool ok = prm_.skin > 0.0;
    for (std::size_t i = 0; ok && i < pos.size(); ++i)
      if (min_image(ref_pos_[i], pos[i]).norm2() > lim2) ok = false;
    if (ok) {
      ++reuses_;
      telemetry::count("dpd.nlist.reuse");
      return false;
    }
  }
  build(pos);
  valid_ = true;
  ++rebuilds_;
  telemetry::count("dpd.nlist.rebuild");
  return true;
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
  cell_head_.assign(static_cast<std::size_t>(ncx_) * ncy_ * ncz_, -1);
  cell_next_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 p = pos[i];
    wrap(p);
    const int cx = cell_coord(p.x, prm_.box.x, ncx_);
    const int cy = cell_coord(p.y, prm_.box.y, ncy_);
    const int cz = cell_coord(p.z, prm_.box.z, ncz_);
    const std::size_t c =
        (static_cast<std::size_t>(cz) * ncy_ + cy) * static_cast<std::size_t>(ncx_) + cx;
    cell_next_[i] = cell_head_[c];
    cell_head_[c] = static_cast<long>(i);
  }

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
