#include "reference/dpd_exchange_reference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "dpd/exchange/exchangers.hpp"

namespace dpd::exchange::reference {

namespace {

bool gid_less(const ParticleRecord& a, const ParticleRecord& b) { return a.gid < b.gid; }

/// Records leaving this rank's subdomain go to their new owner; arrivals
/// are merged in and the result sorted by gid.
std::vector<ParticleRecord> migrate(const xmp::Comm& comm, const Decomposition& d,
                                    std::vector<ParticleRecord> owned) {
  const int me = comm.rank();
  const auto& nbrs = d.neighbors(me);
  std::unordered_map<int, std::size_t> slot;  // neighbour rank -> outbox slot
  for (std::size_t k = 0; k < nbrs.size(); ++k) slot[nbrs[k]] = k;
  std::vector<std::vector<ParticleRecord>> outbox(nbrs.size());
  std::vector<ParticleRecord> kept;
  for (const ParticleRecord& r : owned) {
    const int dst = d.rank_of_position(r.pos);
    if (dst == me) {
      kept.push_back(r);
      continue;
    }
    const auto it = slot.find(dst);
    if (it == slot.end())
      throw std::runtime_error("reference: particle gid " + std::to_string(r.gid) +
                               " migrated past the neighbour shell");
    outbox[it->second].push_back(r);
  }
  for (std::size_t k = 0; k < nbrs.size(); ++k) comm.send(nbrs[k], kTagMigrate, outbox[k]);
  for (int src : nbrs) {
    const auto in = comm.recv<ParticleRecord>(src, kTagMigrate);
    kept.insert(kept.end(), in.begin(), in.end());
  }
  std::sort(kept.begin(), kept.end(), gid_less);
  return kept;
}

/// Ship every gid-sorted owned record within halo_width of a neighbour
/// there, merge owned + received ghosts by sorting, and resolve the plans'
/// gids to slots by binary search.
Layout build_halo(const xmp::Comm& comm, const Decomposition& d,
                  const std::vector<ParticleRecord>& owned) {
  const auto& nbrs = d.neighbors(comm.rank());
  std::vector<std::vector<std::uint32_t>> sent(nbrs.size()), got(nbrs.size());
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    std::vector<ParticleRecord> out;
    for (const ParticleRecord& r : owned)
      if (d.in_halo_of(r.pos, nbrs[k])) {
        out.push_back(r);
        out.back().ghost = 1;
        sent[k].push_back(r.gid);
      }
    comm.send(nbrs[k], kTagHaloBuild, out);
  }
  Layout lay;
  lay.particles = owned;
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    const auto in = comm.recv<ParticleRecord>(nbrs[k], kTagHaloBuild);
    for (const ParticleRecord& r : in) got[k].push_back(r.gid);
    lay.particles.insert(lay.particles.end(), in.begin(), in.end());
  }
  std::sort(lay.particles.begin(), lay.particles.end(), gid_less);
  const auto slot_of = [&lay](std::uint32_t g) {
    const auto it = std::lower_bound(
        lay.particles.begin(), lay.particles.end(), g,
        [](const ParticleRecord& r, std::uint32_t v) { return r.gid < v; });
    if (it == lay.particles.end() || it->gid != g)
      throw std::logic_error("reference: plan gid " + std::to_string(g) + " missing");
    return static_cast<std::uint32_t>(it - lay.particles.begin());
  };
  lay.send.resize(nbrs.size());
  lay.recv.resize(nbrs.size());
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    for (std::uint32_t g : sent[k]) lay.send[k].push_back(slot_of(g));
    for (std::uint32_t g : got[k]) lay.recv[k].push_back(slot_of(g));
  }
  return lay;
}

}  // namespace

std::vector<ParticleRecord> owned_records(const DpdSystem& sys) {
  std::vector<ParticleRecord> recs;
  for (std::size_t i = 0; i < sys.size(); ++i)
    if (!sys.is_ghost(i)) recs.push_back(sys.particle_record(i));
  return recs;
}

Layout distribute(const xmp::Comm& comm, const Decomposition& d,
                  const std::vector<ParticleRecord>& everyone) {
  std::vector<ParticleRecord> owned;
  for (const ParticleRecord& r : everyone)
    if (d.rank_of_position(r.pos) == comm.rank()) owned.push_back(r);
  return build_halo(comm, d, owned);
}

Layout rebuild(const xmp::Comm& comm, const Decomposition& d, std::vector<ParticleRecord> owned) {
  return build_halo(comm, d, migrate(comm, d, std::move(owned)));
}

}  // namespace dpd::exchange::reference
