// Verlet neighbor-list equivalence suite: the fast pair paths (CSR list,
// grid point queries) must agree exactly with direct
// O(N^2) enumeration across periodicities, skins, tiny periodic boxes, and
// particle insertion/deletion — and checkpoint/restart must stay bitwise
// identical even though a restart rebuilds a list the uninterrupted run was
// still reusing (docs/PERF.md explains why that is non-trivial).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dpd/inflow.hpp"
#include "dpd/neighbor.hpp"
#include "dpd/system.hpp"
#include "one_lane.hpp"
#include "reference/dpd_pairs_reference.hpp"
#include "resilience/blob.hpp"

namespace {

using Pair = std::pair<std::size_t, std::size_t>;

dpd::SoA3 random_positions(std::size_t n, const dpd::Vec3& box, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> ux(0.0, box.x), uy(0.0, box.y), uz(0.0, box.z);
  dpd::SoA3 pos;
  for (std::size_t i = 0; i < n; ++i) pos.push_back({ux(rng), uy(rng), uz(rng)});
  return pos;
}

/// All pairs with r < rc at `pos` by direct O(N^2) enumeration, sorted.
std::vector<Pair> brute_pairs(const dpd::NeighborList& nl, const dpd::SoA3& pos) {
  const double rc2 = nl.params().rc * nl.params().rc;
  std::vector<Pair> out;
  for (std::size_t i = 0; i < pos.size(); ++i)
    for (std::size_t j = i + 1; j < pos.size(); ++j)
      if (nl.min_image(pos[i], pos[j]).norm2() < rc2) out.emplace_back(i, j);
  return out;
}

std::vector<Pair> list_pairs(const dpd::NeighborList& nl, const dpd::SoA3& pos) {
  std::vector<Pair> out;
  nl.for_each(pos, [&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
    out.emplace_back(std::min(i, j), std::max(i, j));
  });
  std::sort(out.begin(), out.end());
  return out;
}

struct Csr {
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint32_t> neighbors;
};

/// The canonical half list by direct O(N^2) enumeration: every pair within
/// rc + skin at `pos`, under its lower index, runs ascending; with `ghost`
/// set, both-ghost pairs are left out.
Csr brute_csr(const dpd::NeighborList& nl, const dpd::SoA3& pos,
              const std::vector<char>* ghost = nullptr) {
  const double rcut = nl.params().rc + nl.params().skin;
  Csr out;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (ghost && (*ghost)[i] && (*ghost)[j]) continue;
      if (nl.min_image(pos[i], pos[j]).norm2() < rcut * rcut)
        out.neighbors.push_back(static_cast<std::uint32_t>(j));
    }
    out.offsets.push_back(out.neighbors.size());
  }
  return out;
}

void expect_csr_eq(const dpd::NeighborList& nl, const Csr& want, const std::string& what) {
  EXPECT_EQ(nl.offsets(), want.offsets) << what;
  EXPECT_EQ(nl.neighbors(), want.neighbors) << what;
}

/// query() finds exactly the particles within `cutoff` of p.
void expect_query_exact(const dpd::NeighborList& nl, const dpd::SoA3& pos, const dpd::Vec3& p,
                        double cutoff) {
  std::vector<std::size_t> got, want;
  nl.query(pos, p, cutoff, [&](std::size_t j, const dpd::Vec3&, double) { got.push_back(j); });
  for (std::size_t j = 0; j < pos.size(); ++j)
    if (nl.min_image(p, pos[j]).norm2() <= cutoff * cutoff) want.push_back(j);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

/// Bitwise fingerprint of the full particle state.
std::vector<std::uint8_t> state_of(const dpd::DpdSystem& sys) {
  resilience::BlobWriter w;
  sys.save_state(w);
  return w.take();
}

}  // namespace

// ---------------- pair enumeration vs brute force ----------------

TEST(NeighborList, PairsMatchBruteForcePeriodic) {
  dpd::NeighborParams prm;
  prm.box = {8.0, 6.0, 5.0};
  prm.periodic = {true, true, true};
  prm.rc = 1.0;
  prm.skin = 0.3;
  dpd::NeighborList nl(prm);
  const auto pos = random_positions(500, prm.box, 21);
  EXPECT_TRUE(nl.ensure(pos));  // first ensure is always a rebuild
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, PairsMatchBruteForceMixedPeriodicity) {
  dpd::NeighborParams prm;
  prm.box = {8.0, 6.0, 5.0};
  prm.periodic = {true, false, false};
  prm.rc = 1.0;
  prm.skin = 0.25;
  dpd::NeighborList nl(prm);
  const auto pos = random_positions(400, prm.box, 22);
  nl.ensure(pos);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, CsrRunsAreCanonical) {
  // each pair once, under its lower index, runs sorted ascending — the
  // ordering the bitwise-restart argument rests on
  dpd::NeighborParams prm;
  prm.box = {6.0, 6.0, 6.0};
  dpd::NeighborList nl(prm);
  const auto pos = random_positions(300, prm.box, 23);
  nl.ensure(pos);
  const auto& offs = nl.offsets();
  const auto& nbr = nl.neighbors();
  ASSERT_EQ(offs.size(), pos.size() + 1);
  for (std::size_t i = 0; i + 1 < offs.size(); ++i)
    for (std::size_t k = offs[i]; k < offs[i + 1]; ++k) {
      EXPECT_GT(nbr[k], i);
      if (k > offs[i]) {
        EXPECT_GT(nbr[k], nbr[k - 1]);
      }
    }
}

TEST(NeighborList, ReuseUntilSkinExceeded) {
  dpd::NeighborParams prm;
  prm.box = {7.0, 7.0, 7.0};
  prm.skin = 0.4;
  dpd::NeighborList nl(prm);
  auto pos = random_positions(400, prm.box, 24);
  EXPECT_TRUE(nl.ensure(pos));

  // displace every particle by less than skin/2: the stale list must be
  // reused and still enumerate exactly the in-range pairs at the *new*
  // positions
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  const double amp = 0.9 * 0.5 * prm.skin / std::sqrt(3.0);
  for (std::size_t i = 0; i < pos.size(); ++i)
    pos[i] += dpd::Vec3{d(rng), d(rng), d(rng)} * amp;
  EXPECT_FALSE(nl.ensure(pos));
  EXPECT_EQ(nl.reuses(), 1u);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));

  // one particle crossing skin/2 forces a rebuild
  pos[7].x += 0.6 * prm.skin;
  EXPECT_TRUE(nl.ensure(pos));
  EXPECT_EQ(nl.rebuilds(), 2u);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, ZeroSkinRebuildsEveryTime) {
  dpd::NeighborParams prm;
  prm.box = {5.0, 5.0, 5.0};
  prm.skin = 0.0;
  dpd::NeighborList nl(prm);
  const auto pos = random_positions(100, prm.box, 25);
  EXPECT_TRUE(nl.ensure(pos));
  EXPECT_TRUE(nl.ensure(pos));  // even unchanged positions: no reuse
  EXPECT_EQ(nl.reuses(), 0u);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, QueryMatchesBruteForce) {
  dpd::NeighborParams prm;
  prm.box = {8.0, 5.0, 6.0};
  prm.periodic = {true, true, false};
  prm.skin = 0.4;
  dpd::NeighborList nl(prm);
  auto pos = random_positions(500, prm.box, 27);
  nl.ensure(pos);

  auto check_queries = [&](unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> ux(0.0, prm.box.x), uy(0.0, prm.box.y),
        uz(-1.0, prm.box.z + 1.0);
    for (int q = 0; q < 50; ++q) {
      const dpd::Vec3 p{ux(rng), uy(rng), uz(rng)};
      const double cutoff = 0.5 + 0.02 * q;
      std::vector<std::size_t> got, want;
      nl.query(pos, p, cutoff,
               [&](std::size_t j, const dpd::Vec3&, double) { got.push_back(j); });
      for (std::size_t j = 0; j < pos.size(); ++j)
        if (nl.min_image(p, pos[j]).norm2() <= cutoff * cutoff) want.push_back(j);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "query " << q;
    }
  };
  check_queries(31);

  // after sub-skin/2 drift the grid is stale but padded: queries must still
  // be exact against the *current* positions
  std::mt19937 rng(78);
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  const double amp = 0.9 * 0.5 * prm.skin / std::sqrt(3.0);
  for (std::size_t i = 0; i < pos.size(); ++i)
    pos[i] += dpd::Vec3{d(rng), d(rng), d(rng)} * amp;
  EXPECT_FALSE(nl.ensure(pos));
  check_queries(32);
}

TEST(NeighborList, PatchedListEqualsFreshBuild) {
  // With every particle still at its reference position, a list patched by
  // insertion and removal must be exactly the CSR list a fresh build of the
  // surviving population produces. The removal lands while the inserted
  // particles are still pending (not yet merged by ensure()).
  dpd::NeighborParams prm;
  prm.box = {8.0, 6.0, 5.0};
  prm.periodic = {true, true, false};
  prm.skin = 0.3;
  dpd::NeighborList nl(prm);
  const auto pos0 = random_positions(400, prm.box, 28);
  EXPECT_TRUE(nl.ensure(pos0));

  const auto extra = random_positions(60, prm.box, 29);
  const std::size_t total = pos0.size() + extra.size();
  std::vector<long> new_index(total, -1);
  dpd::SoA3 kept;
  for (std::size_t i = 0; i < total; ++i) {
    if (i % 7 == 3) continue;
    new_index[i] = static_cast<long>(kept.size());
    kept.push_back(i < pos0.size() ? pos0.get(i) : extra.get(i - pos0.size()));
  }
  nl.on_remap(new_index);
  EXPECT_TRUE(nl.valid());

  // queries between the patch and the next ensure() see the pending tail
  const dpd::Vec3 p = kept.get(kept.size() - 1);
  std::vector<std::size_t> got, want;
  nl.query(kept, p, 1.0, [&](std::size_t j, const dpd::Vec3&, double) { got.push_back(j); });
  for (std::size_t j = 0; j < kept.size(); ++j)
    if (nl.min_image(p, kept[j]).norm2() <= 1.0) want.push_back(j);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);

  EXPECT_FALSE(nl.ensure(kept));
  EXPECT_EQ(nl.rebuilds(), 1u);
  dpd::NeighborList fresh(prm);
  fresh.ensure(kept);
  EXPECT_EQ(nl.offsets(), fresh.offsets());
  EXPECT_EQ(nl.neighbors(), fresh.neighbors());
}

TEST(NeighborList, PendingRemapsComposeUntilTheNextPass) {
  // Two removals with an insertion between them, and no ensure(): the list
  // holds one composed map. Queries in between map the grid through it;
  // the next ensure() either compacts the kept list into exactly a fresh
  // build of the survivors, or, once a survivor has moved past skin/2,
  // drops the map and rebuilds.
  dpd::NeighborParams prm;
  prm.box = {8.0, 6.0, 5.0};
  prm.periodic = {true, true, false};
  prm.skin = 0.3;
  dpd::NeighborList nl(prm);
  const auto pos0 = random_positions(400, prm.box, 28);
  EXPECT_TRUE(nl.ensure(pos0));

  // drop every index with i % m == r from `pos`
  auto remove = [&](const dpd::SoA3& pos, std::size_t m, std::size_t r) {
    std::vector<long> new_index(pos.size(), -1);
    dpd::SoA3 kept;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      if (i % m == r) continue;
      new_index[i] = static_cast<long>(kept.size());
      kept.push_back(pos.get(i));
    }
    nl.on_remap(new_index);
    return kept;
  };
  auto queries_exact = [&](const dpd::SoA3& pos) {
    for (const std::size_t k : {std::size_t{0}, pos.size() / 2, pos.size() - 1})
      expect_query_exact(nl, pos, pos.get(k), 1.0);
    expect_query_exact(nl, pos, {0.1, 5.9, 2.5}, 1.3);
  };

  auto pos = remove(pos0, 7, 3);
  queries_exact(pos);
  const auto extra = random_positions(30, prm.box, 29);
  for (std::size_t k = 0; k < extra.size(); ++k) pos.push_back(extra.get(k));
  queries_exact(pos);
  // the second removal takes listed particles and appended ones alike
  pos = remove(pos, 5, 1);
  EXPECT_TRUE(nl.valid());
  queries_exact(pos);
  EXPECT_EQ(nl.compactions(), 0u);
  EXPECT_EQ(nl.remaps_dropped(), 0u);

  EXPECT_FALSE(nl.ensure(pos));
  EXPECT_EQ(nl.rebuilds(), 1u);
  EXPECT_EQ(nl.compactions(), 1u);
  EXPECT_EQ(nl.remaps_dropped(), 0u);
  dpd::NeighborList fresh(prm);
  fresh.ensure(pos);
  expect_csr_eq(nl, {fresh.offsets(), fresh.neighbors()}, "kept");
  queries_exact(pos);

  // a survivor past skin/2: the next pass rebuilds and drops the map
  pos = remove(pos, 9, 4);
  queries_exact(pos);
  pos[0].x += 0.2;
  EXPECT_TRUE(nl.ensure(pos));
  EXPECT_EQ(nl.compactions(), 1u);
  EXPECT_EQ(nl.remaps_dropped(), 1u);
  expect_csr_eq(nl, brute_csr(nl, pos), "rebuilt");
  queries_exact(pos);
}

TEST(NeighborList, AppendPairsAgainstReferencePositions) {
  // Particle 0 drifts 0.14 (< skin/2) away from its reference, then particle
  // 1 is inserted 1.25 (< rc + skin) from that reference but 1.39 from 0's
  // current position. Both then drift back toward each other, still within
  // skin/2, to r = 0.97 < rc without triggering a rebuild: the pair is found
  // only if the append tested 0's reference position.
  dpd::NeighborParams prm;
  prm.box = {8.0, 8.0, 8.0};
  prm.periodic = {true, true, true};
  prm.rc = 1.0;
  prm.skin = 0.3;
  dpd::NeighborList nl(prm);
  dpd::SoA3 pos;
  pos.push_back({5.0, 4.0, 4.0});
  EXPECT_TRUE(nl.ensure(pos));
  pos[0].x = 5.14;
  pos.push_back({3.75, 4.0, 4.0});
  EXPECT_FALSE(nl.ensure(pos));
  pos[0].x = 4.86;
  pos[1].x = 3.89;
  EXPECT_FALSE(nl.ensure(pos));
  ASSERT_EQ(brute_pairs(nl, pos).size(), 1u);
  EXPECT_EQ(list_pairs(nl, pos), brute_pairs(nl, pos));
}

TEST(NeighborList, BuildCsrEqualsBruteForceAllPeriodicities) {
  // The exact CSR out to rc + skin, offsets and runs, for every periodicity
  // mask. With rc + skin = 1.3 the box has exactly 3 cells along x and z, so
  // a periodic x row wraps on both sides of every cell. Non-periodic
  // coordinates reach 1 past the faces (clamped into the edge cells), and
  // the sparse populations leave cells empty.
  dpd::NeighborParams prm;
  prm.box = {4.0, 6.0, 4.5};
  prm.rc = 1.0;
  prm.skin = 0.3;
  for (int mask = 0; mask < 8; ++mask) {
    prm.periodic = {(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0};
    for (std::size_t n : {0, 1, 2, 25, 300}) {
      std::mt19937 rng(static_cast<unsigned>(100 + 10 * mask) + static_cast<unsigned>(n));
      auto coord = [&](double L, bool per) {
        return std::uniform_real_distribution<double>(per ? 0.0 : -1.0, per ? L : L + 1.0)(rng);
      };
      dpd::SoA3 pos;
      for (std::size_t i = 0; i < n; ++i)
        pos.push_back({coord(prm.box.x, prm.periodic[0]), coord(prm.box.y, prm.periodic[1]),
                       coord(prm.box.z, prm.periodic[2])});
      const std::string what = "mask " + std::to_string(mask) + " n " + std::to_string(n);
      dpd::NeighborList nl(prm);
      nl.ensure(pos);
      expect_csr_eq(nl, brute_csr(nl, pos), what);

      // decomposition filter: every third particle a ghost, no both-ghost pair
      std::vector<char> ghost(n);
      for (std::size_t i = 0; i < n; ++i) ghost[i] = i % 3 == 0;
      nl.set_pair_filter(&ghost);
      nl.ensure(pos);
      expect_csr_eq(nl, brute_csr(nl, pos, &ghost), what + " ghost-filtered");
    }
  }
}

namespace {

/// A full build of `pos` equals the O(N^2) CSR bit for bit, unfiltered and
/// with every third particle a ghost, whether the scan splits over every
/// core or runs inline (one_lane.hpp).
void expect_build_exact(const dpd::NeighborParams& prm, const dpd::SoA3& pos,
                        const std::string& what) {
  std::vector<char> ghost(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) ghost[i] = i % 3 == 0;
  auto check = [&](const std::string& where) {
    dpd::NeighborList nl(prm);
    nl.ensure(pos);
    expect_csr_eq(nl, brute_csr(nl, pos), what + where);
    nl.set_pair_filter(&ghost);
    nl.ensure(pos);
    expect_csr_eq(nl, brute_csr(nl, pos, &ghost), what + where + " ghost-filtered");
  };
  check(" all lanes");
  on_one_lane([&] { check(" inline"); });
}

}  // namespace

TEST(NeighborList, SplitScanEqualsBruteForceWhateverTheRows) {
  // The lanes split the scan by (y, z) cell rows: with 1, 2 or 3 rows a
  // lane's range is empty, and with every particle in one row one lane
  // scans them all. rc + skin = 1.3.
  dpd::NeighborParams prm;
  prm.rc = 1.0;
  prm.skin = 0.3;
  struct Shape {
    dpd::Vec3 box;
    std::array<bool, 3> periodic;
  };
  for (const Shape& sh : {Shape{{6.0, 2.0, 2.0}, {true, false, false}},
                          Shape{{6.0, 2.0, 2.0}, {false, false, false}},
                          Shape{{6.0, 2.6, 2.0}, {true, false, false}},
                          Shape{{6.0, 4.0, 2.0}, {true, true, false}},
                          Shape{{6.0, 2.0, 4.0}, {false, false, true}}}) {
    prm.box = sh.box;
    prm.periodic = sh.periodic;
    for (std::size_t n : {0, 1, 7, 200}) {
      const auto pos = random_positions(n, prm.box, 40 + static_cast<unsigned>(n));
      expect_build_exact(prm, pos,
                         "box " + std::to_string(sh.box.y) + "x" + std::to_string(sh.box.z) +
                             " n " + std::to_string(n));
    }
  }
  // every particle in cell row (y, z) = (1, 1) of a 4 x 3 row grid
  prm.box = {6.0, 6.0, 4.5};
  for (int mask = 0; mask < 8; ++mask) {
    prm.periodic = {(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0};
    auto pos = random_positions(300, {6.0, 1.3, 1.3}, 50 + static_cast<unsigned>(mask));
    for (std::size_t i = 0; i < pos.size(); ++i)
      pos.set(i, pos[i] + dpd::Vec3{0.0, 1.5, 1.5});
    expect_build_exact(prm, pos, "one row, mask " + std::to_string(mask));
  }
}

TEST(NeighborList, TinyPeriodicBoxesListEachPairOnce) {
  // One build for every box: the half stencil wraps a periodic axis only
  // when it has 3 or more cells, and walks an axis of 1 or 2 cells, all of
  // them adjacent, without the wrap. Every mix of 1, 2 and 3 cells per
  // axis, every periodicity, skin 0 and 0.3: the build is the brute-force
  // CSR (each pair once) on the pool and inline, and a list patched by 50
  // passes of removal plus insertion stays a fresh build of the survivors.
  dpd::NeighborParams prm;
  prm.rc = 1.0;
  for (const double skin : {0.0, 0.3}) {
    prm.skin = skin;
    // an axis of c * 1.1 (rc + skin) holds exactly c cells for c <= 3
    const double cell = 1.1 * (prm.rc + skin);
    for (int shape = 0; shape < 27; ++shape) {
      const int cx = 1 + shape % 3, cy = 1 + shape / 3 % 3, cz = 1 + shape / 9;
      prm.box = {cell * cx, cell * cy, cell * cz};
      const auto n = static_cast<std::size_t>(4.0 * prm.box.x * prm.box.y * prm.box.z) + 2;
      for (int mask = 0; mask < 8; ++mask) {
        prm.periodic = {(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0};
        const std::string what = "cells " + std::to_string(cx) + std::to_string(cy) +
                                 std::to_string(cz) + " mask " + std::to_string(mask) +
                                 " skin " + std::to_string(skin);
        const auto seed = static_cast<unsigned>(700 + 8 * shape + mask);
        auto pos = random_positions(n, prm.box, seed);
        expect_build_exact(prm, pos, what);

        dpd::NeighborList nl(prm);
        nl.ensure(pos);
        const std::size_t inserts = n / 5 + 1;
        const auto extra = random_positions(50 * inserts, prm.box, seed + 1000);
        std::size_t next = 0;
        for (int pass = 0; pass < 50; ++pass) {
          // in turn: drop about one in five, append n/5 + 1, or both
          if (pass % 3 != 1) {
            std::vector<long> new_index(pos.size(), -1);
            dpd::SoA3 kept;
            for (std::size_t i = 0; i < pos.size(); ++i) {
              if ((7 * i + static_cast<std::size_t>(pass)) % 5 == 0) continue;
              new_index[i] = static_cast<long>(kept.size());
              kept.push_back(pos.get(i));
            }
            nl.on_remap(new_index);
            pos = kept;
          }
          if (pass % 3 != 0)
            for (std::size_t k = 0; k < inserts; ++k) pos.push_back(extra.get(next++));
          nl.ensure(pos);
          dpd::NeighborList fresh(prm);
          fresh.ensure(pos);
          expect_csr_eq(nl, {fresh.offsets(), fresh.neighbors()},
                        what + " pass " + std::to_string(pass));
        }
        expect_query_exact(nl, pos, pos.get(0), prm.rc);
        // tiny boxes take the incremental path too
        if (skin > 0.0) {
          EXPECT_EQ(nl.rebuilds(), 1u) << what;
        }
      }
    }
  }
}

TEST(NeighborList, ScanRangesOfEveryTailLengthEqualBruteForce) {
  // The scan reads 4 slots at a time with a masked tail. Cells holding 0-7
  // particles give own-tail and neighbour ranges of every length around
  // the block width, for every periodicity.
  dpd::NeighborParams prm;
  prm.rc = 1.0;
  prm.skin = 0.3;
  prm.box = {8 * 1.3, 3 * 1.3, 4 * 1.3};
  for (int mask = 0; mask < 8; ++mask) {
    prm.periodic = {(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0};
    std::mt19937 rng(60 + static_cast<unsigned>(mask));
    std::uniform_real_distribution<double> u(0.0, 1.3);
    dpd::SoA3 pos;
    int cell = 0;
    for (int cz = 0; cz < 4; ++cz)
      for (int cy = 0; cy < 3; ++cy)
        for (int cx = 0; cx < 8; ++cx, ++cell)
          for (int k = 0; k < (cell * 5 + mask) % 8; ++k)
            pos.push_back({1.3 * cx + u(rng), 1.3 * cy + u(rng), 1.3 * cz + u(rng)});
    expect_build_exact(prm, pos, "tails, mask " + std::to_string(mask));
  }
}

TEST(NeighborList, NonFiniteCoordinatesScanLikeBruteForce) {
  // NaN and +-inf separations compare false in the 4-wide scan as in the
  // scalar one: such a particle lists no pair, on any axis, periodic or not.
  dpd::NeighborParams prm;
  prm.box = {8.0, 6.0, 5.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < 8; ++mask) {
    prm.periodic = {(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0};
    auto pos = random_positions(300, prm.box, 70 + static_cast<unsigned>(mask));
    const double bad[] = {nan, inf, -inf};
    for (std::size_t k = 0; k < 27; ++k) {
      dpd::Vec3 p = pos[5 + 11 * k];
      (k % 3 == 0 ? p.x : k % 3 == 1 ? p.y : p.z) = bad[(k / 3) % 3];
      pos.set(5 + 11 * k, p);
    }
    expect_build_exact(prm, pos, "non-finite, mask " + std::to_string(mask));
  }
}

TEST(NeighborList, FarOutAndNonFiniteCoordinatesBinSafely) {
  // A coordinate 1e300 past a non-periodic face and a NaN coordinate have
  // no in-range cell; binning must clamp them (in double, before any cast
  // to int) instead of overflowing. Neither lists a pair, and every finite
  // particle's pairs stay exact through build, query and append.
  dpd::NeighborParams prm;
  prm.box = {8.0, 6.0, 5.0};
  prm.periodic = {true, true, false};
  dpd::NeighborList nl(prm);
  auto pos = random_positions(200, prm.box, 30);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  pos[3].z = 1e300;
  pos[11].x = nan;
  EXPECT_TRUE(nl.ensure(pos));
  const Csr built = brute_csr(nl, pos);
  EXPECT_EQ(built.offsets[4] - built.offsets[3], 0u);
  EXPECT_EQ(built.offsets[12] - built.offsets[11], 0u);
  expect_csr_eq(nl, built, "build");

  for (const dpd::Vec3& p : {pos.get(0), pos.get(3), pos.get(11)}) expect_query_exact(nl, pos, p, 1.0);

  // merged by append, not a rebuild: one more of each, plus a finite one
  pos.push_back({2.0, 3.0, -1e300});
  pos.push_back({1.0, nan, 2.0});
  pos.push_back(pos.get(0) + dpd::Vec3{0.5, 0.0, 0.0});
  EXPECT_FALSE(nl.ensure(pos));
  EXPECT_EQ(nl.rebuilds(), 1u);
  expect_csr_eq(nl, brute_csr(nl, pos), "append");
  for (const dpd::Vec3& p : {pos.get(200), pos.get(201), pos.get(202)})
    expect_query_exact(nl, pos, p, 1.0);
}

// ---------------- DpdSystem integration ----------------

namespace {

dpd::DpdParams small_box_params(double skin) {
  dpd::DpdParams prm;
  prm.box = {6.0, 6.0, 6.0};
  prm.periodic = {true, true, true};
  prm.skin = skin;
  return prm;
}

}  // namespace

TEST(DpdNeighbor, ForcesMatchDirectReference) {
  // engine forces (Verlet gather + SIMD kernel) vs the Groot-Warren formula
  // evaluated pair-by-pair over direct enumeration: a uniform fill, and the
  // same fill with a dense cluster whose first member's row is longer than
  // one kernel batch
  auto prm = small_box_params(0.3);
  auto check = [&](dpd::DpdSystem& sys) {
    sys.compute_forces();
    const auto& vel = sys.velocities();
    std::vector<dpd::Vec3> ref(sys.size());
    const double inv_sqrt_dt = 1.0 / std::sqrt(prm.dt);
    const double a = dpd::DpdSystem::kPairA, g = dpd::DpdSystem::kPairGamma;
    const double sig = std::sqrt(2.0 * g * prm.kBT);
    const auto direct = [&](std::size_t i, std::size_t j, const dpd::Vec3& dr, double r) {
      const double w = 1.0 - r / prm.rc;
      const double rv = dr.dot(vel[j] - vel[i]) / r;
      const double zeta = dpd::pair_gaussian_like(
          sys.step_count(), static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
      const double fmag = a * w - g * w * w * rv + sig * w * zeta * inv_sqrt_dt;
      const dpd::Vec3 f = dr * (fmag / r);
      ref[i] -= f;
      ref[j] += f;
    };
    dpd::reference::for_each_pair_direct(sys, direct);

    const auto& frc = sys.forces();
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const double tol = 1e-9 * std::max(1.0, ref[i].norm());
      EXPECT_NEAR(frc[i].x, ref[i].x, tol) << "particle " << i;
      EXPECT_NEAR(frc[i].y, ref[i].y, tol);
      EXPECT_NEAR(frc[i].z, ref[i].z, tol);
    }
  };
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  check(sys);

  dpd::DpdSystem dense(prm, std::make_shared<dpd::NoWalls>());
  dense.fill(3.0, dpd::kSolvent);
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> u(-0.35, 0.35), v(-1.0, 1.0);
  const std::size_t first = dense.size();
  for (int k = 0; k < 400; ++k)
    dense.add_particle({3.0 + u(rng), 3.0 + u(rng), 3.0 + u(rng)}, {v(rng), v(rng), v(rng)},
                       dpd::kSolvent);
  check(dense);
  const auto& offs = dense.neighbor_list().offsets();
  EXPECT_GT(offs[first + 1] - offs[first], dpd::DpdSystem::kPairBatch);
}

TEST(DpdNeighbor, TrajectoryIndependentOfSkin) {
  // skin 0 rebuilds the list every force pass; skin 0.6 reuses a stale (but
  // valid) one for many steps. The canonical pair order plus the batch-
  // position-invariant kernel make the trajectories bitwise identical.
  dpd::DpdSystem a(small_box_params(0.0), std::make_shared<dpd::NoWalls>());
  dpd::DpdSystem b(small_box_params(0.6), std::make_shared<dpd::NoWalls>());
  a.fill(3.0, dpd::kSolvent);
  b.fill(3.0, dpd::kSolvent);
  for (int s = 0; s < 25; ++s) {
    a.step();
    b.step();
  }
  EXPECT_GT(b.neighbor_list().reuses(), 0u);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(state_of(a), state_of(b));
}

TEST(DpdNeighbor, CheckpointRestartIsBitwise) {
  // a restart rebuilds the neighbor list mid-reuse-window; the trajectory
  // must not notice (the repo's CI digest smoke enforces the same property
  // end-to-end)
  auto prm = small_box_params(0.6);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  for (int s = 0; s < 7; ++s) sys.step();

  resilience::BlobWriter w;
  sys.save_state(w);
  const auto snapshot = w.take();

  dpd::DpdSystem restarted(prm, std::make_shared<dpd::NoWalls>());
  resilience::BlobReader r(snapshot.data(), snapshot.size());
  restarted.load_state(r);

  for (int s = 0; s < 9; ++s) {
    sys.step();
    restarted.step();
  }
  EXPECT_EQ(state_of(sys), state_of(restarted));
}

TEST(DpdNeighbor, ListSurvivesRemovalAndInsertion) {
  auto prm = small_box_params(0.4);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  sys.compute_forces();  // builds the list

  auto expect_pairs_exact = [&] {
    std::vector<Pair> fast, ref;
    sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
      fast.emplace_back(std::min(i, j), std::max(i, j));
    });
    dpd::reference::for_each_pair_direct(sys, [&](std::size_t i, std::size_t j, const dpd::Vec3&,
                                                  double) { ref.emplace_back(i, j); });
    std::sort(fast.begin(), fast.end());
    std::sort(ref.begin(), ref.end());
    EXPECT_EQ(fast, ref);
  };

  // both patches keep the list: no rebuild across the remove and the add
  const std::uint64_t rebuilds = sys.neighbor_list().rebuilds();
  sys.remove_particles({0, 5, 17, sys.size() - 1});
  expect_pairs_exact();
  EXPECT_EQ(sys.neighbor_list().rebuilds(), rebuilds);

  sys.add_particle({3.0, 3.0, 3.0}, {0.1, 0.0, 0.0}, dpd::kSolvent);
  expect_pairs_exact();
  EXPECT_EQ(sys.neighbor_list().rebuilds(), rebuilds);
}

TEST(DpdNeighbor, QueryFindsParticleAddedBeforeNextPass) {
  // PlateletModel-style: insert a particle, then query the grid before any
  // force pass merged it into the list.
  dpd::DpdSystem sys(small_box_params(0.3), std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  sys.compute_forces();
  const std::uint64_t rebuilds = sys.neighbor_list().rebuilds();

  const dpd::Vec3 p{3.0, 3.0, 3.0};
  const std::size_t k = sys.add_particle(p, {}, dpd::kSolvent);
  EXPECT_TRUE(sys.neighbor_list().valid());
  std::vector<std::size_t> got, want;
  sys.query_neighbors(p, 0.8,
                      [&](std::size_t j, const dpd::Vec3&, double) { got.push_back(j); });
  for (std::size_t j = 0; j < sys.size(); ++j)
    if (sys.min_image(p, sys.positions()[j]).norm2() <= 0.64) want.push_back(j);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  EXPECT_NE(std::find(got.begin(), got.end(), k), got.end());

  sys.ensure_neighbors();
  EXPECT_EQ(sys.neighbor_list().rebuilds(), rebuilds);
}

namespace {

/// Open channel along x: FlowBc deletes escapees at both faces and inserts
/// into the inflow buffer.
dpd::DpdParams open_channel_params(double skin) {
  dpd::DpdParams prm;
  prm.box = {10.0, 5.0, 5.0};
  prm.periodic = {false, true, true};
  prm.skin = skin;
  return prm;
}

dpd::FlowBcParams open_channel_bc() {
  dpd::FlowBcParams bp;
  bp.axis = 0;
  bp.density = 3.0;
  bp.target_velocity = [](const dpd::Vec3&) { return dpd::Vec3{1.0, 0.0, 0.0}; };
  return bp;
}

}  // namespace

TEST(DpdNeighbor, InflowOutflowKeepsListCorrect) {
  // FlowBc inserts and deletes particles every step; the list must be
  // patched correctly through both paths
  dpd::DpdSystem sys(open_channel_params(0.4), std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  dpd::FlowBc bc(open_channel_bc());

  for (int s = 0; s < 10; ++s) {
    sys.step();
    bc.apply(sys);
  }
  EXPECT_GT(bc.inserted_total() + bc.deleted_total(), 0u);

  std::vector<Pair> fast, ref;
  sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
    fast.emplace_back(std::min(i, j), std::max(i, j));
  });
  dpd::reference::for_each_pair_direct(sys, [&](std::size_t i, std::size_t j, const dpd::Vec3&,
                                                double) { ref.emplace_back(i, j); });
  std::sort(fast.begin(), fast.end());
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(fast, ref);
}

TEST(DpdNeighbor, FlowBcChurnTrajectoryEqualsRebuildEveryPass) {
  // Skin 0 rebuilds the list on every force pass; at skin 0.3 the churn
  // patches the live list instead. Bitwise-equal states pin that every
  // patched list enumerates the interacting pairs in canonical order; the
  // rebuild count pins that churn no longer throws the list away.
  // Every removal's index map is applied to a kept list or dropped by a
  // rebuild at the next pass, never both: compactions plus dropped maps
  // count the removals made on a valid list, but for the last step's,
  // which is still pending.
  struct Run {
    std::vector<std::uint8_t> state;
    std::uint64_t rebuilds = 0, passes = 0, compactions = 0, dropped = 0;
    std::size_t churned = 0, removals = 0;
  };
  auto run = [](double skin) {
    dpd::DpdSystem sys(open_channel_params(skin), std::make_shared<dpd::NoWalls>());
    sys.fill(3.0, dpd::kSolvent);
    dpd::FlowBc bc(open_channel_bc());
    const auto& nl = sys.neighbor_list();
    constexpr int kSteps = 200;
    std::size_t removals = 0;
    for (int s = 0; s < kSteps; ++s) {
      sys.step();
      const bool valid = nl.valid();
      const std::size_t deleted = bc.deleted_total();
      bc.apply(sys);
      removals += s + 1 < kSteps && valid && bc.deleted_total() > deleted;
    }
    // the binary-searched gid lookup survives the churn
    for (std::size_t i = 0; i < sys.size(); ++i)
      EXPECT_EQ(sys.local_of(sys.gid_of(i)), static_cast<long>(i));
    return Run{state_of(sys),
               nl.rebuilds(),
               nl.rebuilds() + nl.reuses(),
               nl.compactions(),
               nl.remaps_dropped(),
               bc.inserted_total() + bc.deleted_total(),
               removals};
  };
  const Run every = run(0.0);
  const Run patched = run(0.3);
  EXPECT_GT(patched.churned, 200u);
  EXPECT_EQ(every.rebuilds, every.passes);
  EXPECT_EQ(patched.passes, every.passes);
  EXPECT_LT(static_cast<double>(patched.rebuilds), 0.8 * static_cast<double>(patched.passes));
  EXPECT_EQ(patched.state, every.state);
  EXPECT_EQ(every.compactions, 0u);
  EXPECT_EQ(every.dropped, every.removals);
  EXPECT_GT(patched.compactions, 0u);
  EXPECT_GT(patched.dropped, 0u);
  EXPECT_EQ(patched.compactions + patched.dropped, patched.removals);
}

TEST(DpdNeighbor, LoadStateRejectsUnsortedGids) {
  // local_of binary-searches the gids, so a checkpoint whose gids are not
  // strictly ascending is corrupt input.
  const auto prm = small_box_params(0.3);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent);
  auto blob = state_of(sys);

  // walk save_state's field order up to the gid array, then swap two gids
  resilience::BlobReader walk(blob);
  walk.pod<std::uint64_t>();  // step
  for (int lane = 0; lane < 12; ++lane) walk.vec<double>();  // pos, vel, frc, frc_old
  walk.vec<dpd::Species>();
  walk.vec<char>();  // frozen
  const std::size_t at = blob.size() - walk.remaining() + sizeof(std::uint64_t);
  std::uint32_t g[2];
  std::memcpy(g, blob.data() + at, sizeof g);
  ASSERT_EQ(g[0], sys.gid_of(0));
  ASSERT_EQ(g[1], sys.gid_of(1));

  dpd::DpdSystem intact(prm, std::make_shared<dpd::NoWalls>());
  resilience::BlobReader r0(blob);
  EXPECT_NO_THROW(intact.load_state(r0));

  std::swap(g[0], g[1]);
  std::memcpy(blob.data() + at, g, sizeof g);
  dpd::DpdSystem swapped(prm, std::make_shared<dpd::NoWalls>());
  resilience::BlobReader r1(blob);
  EXPECT_THROW(swapped.load_state(r1), resilience::CorruptError);
}

TEST(DpdNeighbor, ResetParticlesRejectsUnsortedRecords) {
  const auto prm = small_box_params(0.3);
  dpd::DpdSystem a(prm, std::make_shared<dpd::NoWalls>());
  a.fill(3.0, dpd::kSolvent);
  dpd::DpdSystem b(prm, std::make_shared<dpd::NoWalls>());
  std::vector<dpd::ParticleRecord> recs = {a.particle_record(1), a.particle_record(0)};
  EXPECT_THROW(b.reset_particles(recs), std::invalid_argument);
  EXPECT_THROW(b.reset_particles({recs[0], recs[0]}), std::invalid_argument);
  std::swap(recs[0], recs[1]);
  b.reset_particles(recs);
  EXPECT_EQ(b.local_of(a.gid_of(1)), 1);
  EXPECT_EQ(b.local_of(a.gid_of(2)), -1);
}

TEST(DpdNeighbor, HeavyChurnKeepsPairSetsExact) {
  // 100 steps of add/remove churn interleaved with stepping: every
  // on_remap/invalidate path must leave the reused list enumerating exactly
  // the O(N^2) reference pair set at the current positions
  auto prm = small_box_params(0.4);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 41);
  std::mt19937 rng(91);
  std::uniform_real_distribution<double> u(0.0, prm.box.x);
  std::size_t removed_total = 0, added_total = 0;
  for (int s = 0; s < 100; ++s) {
    sys.step();
    if (s % 3 == 0 && sys.size() > 50) {
      std::uniform_int_distribution<std::size_t> pick(0, sys.size() - 1);
      sys.remove_particles({pick(rng), pick(rng), pick(rng)});
      removed_total += 3;  // upper bound; duplicates collapse
    }
    if (s % 4 == 0) {
      sys.add_particle({u(rng), u(rng), u(rng)}, {0.0, 0.0, 0.0}, dpd::kSolvent);
      ++added_total;
    }
    std::vector<Pair> fast, ref;
    sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
      fast.emplace_back(std::min(i, j), std::max(i, j));
    });
    dpd::reference::for_each_pair_direct(sys, [&](std::size_t i, std::size_t j, const dpd::Vec3&,
                                                  double) { ref.emplace_back(i, j); });
    std::sort(fast.begin(), fast.end());
    std::sort(ref.begin(), ref.end());
    ASSERT_EQ(fast, ref) << "churn step " << s;
  }
  EXPECT_GT(removed_total, 0u);
  EXPECT_GT(added_total, 0u);
  EXPECT_GT(sys.neighbor_list().reuses(), 0u);  // churn must not kill reuse entirely
}
