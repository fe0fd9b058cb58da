#include "dpd/exchange/exchangers.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "dpd/exchange/packers.hpp"
#include "telemetry/registry.hpp"

namespace dpd::exchange {

telemetry::TagClasses comm_tag_classes() {
  telemetry::TagClasses c;
  c.add(kTagMigrate, "dpd.migrate");
  c.add(kTagHaloBuild, "dpd.halo.build");
  c.add(kTagHaloUpdate, "dpd.halo.update");
  return c;
}

namespace {
bool gid_less(const ParticleRecord& a, const ParticleRecord& b) { return a.gid < b.gid; }

/// Reinterpret a received byte payload as doubles in reusable scratch (the
/// fast path keeps one scratch vector warm instead of allocating per recv).
void recv_into(const std::vector<std::uint8_t>& raw, std::vector<double>& out) {
  if (raw.size() % sizeof(double) != 0)
    throw std::runtime_error("exchange: halo payload of " + std::to_string(raw.size()) +
                             " bytes is not a whole number of doubles");
  out.resize(raw.size() / sizeof(double));
  // lint: memcpy-ok (byte payload reinterpreted into the double scratch)
  if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
}
}  // namespace

std::vector<ParticleRecord> MigrationExchanger::exchange(
    std::vector<ParticleRecord> owned) const {
  const int me = comm_.rank();
  const auto& nbrs = decomp_->neighbors(me);
  std::unordered_map<int, std::size_t> slot;  // neighbour rank -> outbox slot
  for (std::size_t k = 0; k < nbrs.size(); ++k) slot[nbrs[k]] = k;
  std::vector<std::vector<ParticleRecord>> outbox(nbrs.size());

  std::vector<ParticleRecord> kept;
  kept.reserve(owned.size());
  std::size_t moved = 0;
  for (const ParticleRecord& r : owned) {
    const int dst = decomp_->rank_of_position(r.pos);
    if (dst == me) {
      kept.push_back(r);
      continue;
    }
    const auto it = slot.find(dst);
    if (it == slot.end())
      throw std::runtime_error(
          "exchange: particle gid " + std::to_string(r.gid) + " migrated from rank " +
          std::to_string(me) + " past the neighbour shell to rank " + std::to_string(dst) +
          " (subdomains are too small for the per-rebuild drift; coarsen the grid or raise "
          "halo_width)");
    outbox[it->second].push_back(r);
    ++moved;
  }
  for (std::size_t k = 0; k < nbrs.size(); ++k) comm_.send(nbrs[k], kTagMigrate, outbox[k]);
  for (int d : nbrs) {
    auto in = comm_.recv<ParticleRecord>(d, kTagMigrate);
    kept.insert(kept.end(), in.begin(), in.end());
  }
  telemetry::count("dpd.migrate.count", static_cast<double>(moved));
  std::sort(kept.begin(), kept.end(), gid_less);
  return kept;
}

std::vector<ParticleRecord> HaloExchanger::build(const std::vector<ParticleRecord>& owned) {
  const int me = comm_.rank();
  const auto& nbrs = decomp_->neighbors(me);
  send_.assign(nbrs.size(), {});
  recv_.assign(nbrs.size(), {});

  // ship boundary records (flagged as ghosts) to every neighbour whose
  // subdomain is within halo_width of them; remember the shipped gids so the
  // send plan can be resolved to slots in the merged layout below
  std::vector<std::vector<std::uint32_t>> sent_gids(nbrs.size());
  std::size_t shipped = 0, bytes = 0;
  {
    std::vector<ParticleRecord> out;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      out.clear();
      for (const ParticleRecord& r : owned)
        if (decomp_->in_halo_of(r.pos, nbrs[k])) {
          out.push_back(r);
          out.back().ghost = 1;
          sent_gids[k].push_back(r.gid);
        }
      comm_.send(nbrs[k], kTagHaloBuild, out);
      shipped += out.size();
      bytes += out.size() * sizeof(ParticleRecord);
    }
  }

  std::vector<ParticleRecord> merged = owned;
  std::vector<std::vector<std::uint32_t>> got_gids(nbrs.size());
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    auto in = comm_.recv<ParticleRecord>(nbrs[k], kTagHaloBuild);
    for (const ParticleRecord& r : in) got_gids[k].push_back(r.gid);
    merged.insert(merged.end(), in.begin(), in.end());
  }
  std::sort(merged.begin(), merged.end(), gid_less);

  // resolve the plan's gids to slots of the gid-sorted layout
  auto slot_of = [&merged](std::uint32_t g) {
    const auto it = std::lower_bound(
        merged.begin(), merged.end(), g,
        [](const ParticleRecord& r, std::uint32_t v) { return r.gid < v; });
    if (it == merged.end() || it->gid != g)
      throw std::logic_error("exchange: halo plan gid " + std::to_string(g) +
                             " missing from the merged layout");
    return static_cast<std::uint32_t>(it - merged.begin());
  };
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    for (std::uint32_t g : sent_gids[k]) send_[k].push_back(slot_of(g));
    for (std::uint32_t g : got_gids[k]) recv_[k].push_back(slot_of(g));
  }
  telemetry::count("dpd.halo.particles", static_cast<double>(shipped));
  telemetry::count("dpd.halo.bytes", static_cast<double>(bytes));
  return merged;
}

void HaloExchanger::begin_update(DpdSystem& sys) {
  const auto& nbrs = decomp_->neighbors(comm_.rank());
  if (!send_pending_.empty() || !recv_pending_.empty())
    throw std::logic_error("exchange: begin_update while a halo update is already in flight");
  std::size_t shipped = 0, bytes = 0;
  recv_pending_.reserve(nbrs.size());
  send_pending_.reserve(nbrs.size());
  for (std::size_t k = 0; k < nbrs.size(); ++k)
    recv_pending_.push_back(comm_.irecv_bytes(nbrs[k], kTagHaloUpdate));
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    pack_posvel(sys.positions(), sys.velocities(), send_[k], pack_buf_);
    send_pending_.push_back(comm_.isend_bytes(nbrs[k], kTagHaloUpdate, pack_buf_.data(),
                                              pack_buf_.size() * sizeof(double)));
    shipped += send_[k].size();
    bytes += pack_buf_.size() * sizeof(double);
  }
  telemetry::count("dpd.halo.particles", static_cast<double>(shipped));
  telemetry::count("dpd.halo.bytes", static_cast<double>(bytes));
}

void HaloExchanger::finish_update(DpdSystem& sys) {
  const auto& nbrs = decomp_->neighbors(comm_.rank());
  if (recv_pending_.size() != nbrs.size())
    throw std::logic_error("exchange: finish_update without a matching begin_update");
  for (auto& p : send_pending_) p.wait();
  send_pending_.clear();
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    recv_into(recv_pending_[k].wait(), recv_buf_);
    unpack_posvel(sys.positions(), sys.velocities(), recv_[k], recv_buf_);
  }
  recv_pending_.clear();
}

}  // namespace dpd::exchange
