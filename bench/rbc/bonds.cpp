#include "rbc/bonds.hpp"

#include "resilience/blob.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dpd {

void BondSet::add_forces(DpdSystem& sys) {
  auto& pos = sys.positions();
  auto& frc = sys.forces();
  const auto& ghost = sys.ghost_mask();
  const bool dist = sys.distributed();
  for (const Bond& b : bonds_) {
    const long li = sys.local_of(b.i), lj = sys.local_of(b.j);
    if (li < 0 && lj < 0) continue;  // neither endpoint here: another rank's work
    if (li < 0 || lj < 0) {
      // One endpoint resolved. On a single rank that means the partner was
      // removed without on_remove_gids pruning — treat as dropped. Under
      // decomposition an owned endpoint whose partner is missing means the
      // bond outgrew the halo width: fail loudly rather than silently
      // zeroing the spring.
      const long have = li < 0 ? lj : li;
      if (dist && !ghost[static_cast<std::size_t>(have)])
        throw std::runtime_error("BondSet: bond partner outside halo (bond longer than halo)");
      continue;
    }
    const auto ui = static_cast<std::size_t>(li), uj = static_cast<std::size_t>(lj);
    const Vec3 dr = sys.min_image(pos[ui], pos[uj]);  // i -> j
    const double r = dr.norm();
    if (r < 1e-12) continue;
    const double f = b.k * (r - b.r0);  // >0: stretched, pull together
    const Vec3 er = dr * (1.0 / r);
    if (!ghost[ui]) frc[ui] += er * f;
    if (!ghost[uj]) frc[uj] -= er * f;
  }
}

void BondSet::on_remove_gids(const std::vector<std::uint32_t>& gids) {
  std::vector<Bond> kept;
  kept.reserve(bonds_.size());
  for (const Bond& b : bonds_) {
    const bool dead = std::find(gids.begin(), gids.end(), b.i) != gids.end() ||
                      std::find(gids.begin(), gids.end(), b.j) != gids.end();
    if (!dead) kept.push_back(b);  // bonded partner removed: drop the bond
  }
  bonds_ = std::move(kept);
}

double BondSet::max_strain(const DpdSystem& sys) const {
  double m = 0.0;
  for (const Bond& b : bonds_) {
    const long li = sys.local_of(b.i), lj = sys.local_of(b.j);
    if (li < 0 || lj < 0) continue;
    const double r = sys.min_image(sys.positions()[static_cast<std::size_t>(li)],
                                   sys.positions()[static_cast<std::size_t>(lj)])
                         .norm();
    m = std::max(m, std::fabs(r - b.r0) / b.r0);
  }
  return m;
}

std::vector<std::size_t> make_rbc_ring(DpdSystem& sys, BondSet& bonds,
                                       const RbcRingParams& p) {
  if (p.beads < 4) throw std::invalid_argument("make_rbc_ring: need >= 4 beads");
  std::vector<std::size_t> idx;
  idx.reserve(static_cast<std::size_t>(p.beads));
  for (int k = 0; k < p.beads; ++k) {
    const double th = 2.0 * M_PI * k / p.beads;
    Vec3 q = p.center;
    q.x += p.radius * std::cos(th);
    q.z += p.radius * std::sin(th);
    idx.push_back(sys.add_particle(q, {}, kRbcBead));
  }
  const double r1 = 2.0 * p.radius * std::sin(M_PI / p.beads);      // neighbour distance
  const double r2 = 2.0 * p.radius * std::sin(2.0 * M_PI / p.beads);  // 2nd neighbour
  const auto n = static_cast<std::size_t>(p.beads);
  for (std::size_t k = 0; k < n; ++k) {
    bonds.add_bond(sys.gid_of(idx[k]), sys.gid_of(idx[(k + 1) % n]), r1, p.k_spring);
    bonds.add_bond(sys.gid_of(idx[k]), sys.gid_of(idx[(k + 2) % n]), r2, p.k_bend);
  }
  return idx;
}

void BondSet::save_state(resilience::BlobWriter& w) const { w.vec(bonds_); }

void BondSet::load_state(resilience::BlobReader& r) { bonds_ = r.vec<Bond>(); }

}  // namespace dpd
