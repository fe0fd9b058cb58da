#include "dpd/exchange/exchangers.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

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
/// Reinterpret a received byte payload as T elements in reusable scratch
/// (rebuilds and the fast path keep their buffers warm instead of
/// allocating per recv).
template <class T>
void recv_into(const std::vector<std::uint8_t>& raw, std::vector<T>& out) {
  if (raw.size() % sizeof(T) != 0)
    throw std::runtime_error("exchange: payload of " + std::to_string(raw.size()) +
                             " bytes is not a whole number of " + std::to_string(sizeof(T)) +
                             "-byte elements");
  out.resize(raw.size() / sizeof(T));
  // analyze: memcpy-ok (byte payload reinterpreted into the typed scratch)
  if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
}

/// Owner of the particle at slot i of the position lanes: `me` when it is
/// inside this rank's owned_box, which settles all but the few near a face
/// without a search; rank_of_position otherwise.
int owner(const Decomposition& d, const Subdomain& box, int me, const SoA3& pos, std::size_t i) {
  const double x = pos.xs()[i], y = pos.ys()[i], z = pos.zs()[i];
  if (x >= box.lo.x && x < box.hi.x && y >= box.lo.y && y < box.hi.y && z >= box.lo.z &&
      z < box.hi.z)
    return me;
  return d.rank_of_position({x, y, z});
}
}  // namespace

void MigrationExchanger::exchange(const DpdSystem& sys) {
  const int me = comm_.rank();
  const auto& nbrs = decomp_->neighbors(me);
  box_of_.assign(static_cast<std::size_t>(decomp_->nranks()), -1);
  for (std::size_t k = 0; k < nbrs.size(); ++k)
    box_of_[static_cast<std::size_t>(nbrs[k])] = static_cast<int>(k);
  outbox_.resize(nbrs.size());
  for (auto& out : outbox_) out.clear();

  keep_.clear();
  const Subdomain box = decomp_->owned_box(me);
  const auto& ghost = sys.ghost_mask();
  std::size_t moved = 0;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    if (ghost[i]) continue;
    const int dst = owner(*decomp_, box, me, sys.positions(), i);
    if (dst == me) {
      keep_.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    const int k = box_of_[static_cast<std::size_t>(dst)];
    if (k < 0)
      throw std::runtime_error(
          "exchange: particle gid " + std::to_string(sys.gid_of(i)) + " migrated from rank " +
          std::to_string(me) + " past the neighbour shell to rank " + std::to_string(dst) +
          " (subdomains are too small for the per-rebuild drift; coarsen the grid or raise "
          "halo_width)");
    outbox_[static_cast<std::size_t>(k)].push_back(sys.particle_record(i));
    ++moved;
  }
  for (std::size_t k = 0; k < nbrs.size(); ++k) comm_.send(nbrs[k], kTagMigrate, outbox_[k]);
  arrivals_.clear();
  for (int d : nbrs) {
    recv_into(comm_.recv_bytes(d, kTagMigrate), in_);
    arrivals_.insert(arrivals_.end(), in_.begin(), in_.end());
  }
  std::sort(arrivals_.begin(), arrivals_.end(),
            [](const ParticleRecord& a, const ParticleRecord& b) { return a.gid < b.gid; });
  telemetry::count("dpd.migrate.count", static_cast<double>(moved));
}

void MigrationExchanger::claim(const DpdSystem& sys) {
  const int me = comm_.rank();
  const Subdomain box = decomp_->owned_box(me);
  const auto& ghost = sys.ghost_mask();
  keep_.clear();
  arrivals_.clear();
  for (std::size_t i = 0; i < sys.size(); ++i)
    if (!ghost[i] && owner(*decomp_, box, me, sys.positions(), i) == me)
      keep_.push_back(static_cast<std::uint32_t>(i));
}

void HaloExchanger::ship(const DpdSystem& sys, const std::vector<std::uint32_t>& keep,
                         const std::vector<ParticleRecord>& arrivals) {
  const auto& nbrs = decomp_->neighbors(comm_.rank());
  const std::size_t nn = nbrs.size();
  nbr_box_.resize(nn);
  out_.resize(nn);
  shipped_.resize(nn);
  for (std::size_t k = 0; k < nn; ++k) {
    nbr_box_[k] = decomp_->subdomain(nbrs[k]);
    out_[k].clear();
    shipped_[k].clear();
  }

  // Walk the owned set in gid order — the survivors, gid-ordered in the
  // layout, merged with the sorted arrivals — so every batch is gid-sorted
  // on the wire and the receiver can merge it as it comes.
  const auto& gid = sys.gids();
  const std::size_t nk = keep.size(), na = arrivals.size();
  std::size_t shipped = 0;
  for (std::size_t s = 0, a = 0; s < nk || a < na;) {
    const bool kept = a == na || (s < nk && gid[keep[s]] < arrivals[a].gid);
    const Vec3 p = kept ? Vec3(sys.positions()[keep[s]]) : arrivals[a].pos;
    const auto ref = static_cast<std::uint32_t>(kept ? s : nk + a);
    for (std::size_t k = 0; k < nn; ++k) {
      if (!decomp_->in_halo(p, nbr_box_[k])) continue;
      out_[k].push_back(kept ? sys.particle_record(keep[s]) : arrivals[a]);
      out_[k].back().ghost = 1;
      shipped_[k].push_back(ref);
      ++shipped;
    }
    if (kept)
      ++s;
    else
      ++a;
  }
  for (std::size_t k = 0; k < nn; ++k) comm_.send(nbrs[k], kTagHaloBuild, out_[k]);
  in_.resize(nn);
  for (std::size_t k = 0; k < nn; ++k)
    recv_into(comm_.recv_bytes(nbrs[k], kTagHaloBuild), in_[k]);
  telemetry::count("dpd.halo.particles", static_cast<double>(shipped));
  telemetry::count("dpd.halo.bytes", static_cast<double>(shipped * sizeof(ParticleRecord)));
}

void HaloExchanger::relayout(DpdSystem& sys, const std::vector<std::uint32_t>& keep,
                             const std::vector<ParticleRecord>& arrivals) {
  runs_.clear();
  runs_.emplace_back(arrivals);
  for (const auto& batch : in_) runs_.emplace_back(batch);
  sys.merge_particles(keep, runs_, slot_);

  // The merge numbered its inputs keep, arrivals, then each neighbour's
  // batch: a shipped particle's new slot is slot_[ref], and a neighbour's
  // ghosts hold the consecutive stretch of slot_ after the batches before.
  const std::size_t nn = in_.size();
  send_.resize(nn);
  recv_.resize(nn);
  auto next = slot_.begin() + static_cast<std::ptrdiff_t>(keep.size() + arrivals.size());
  for (std::size_t k = 0; k < nn; ++k) {
    send_[k].clear();
    for (std::uint32_t ref : shipped_[k]) send_[k].push_back(slot_[ref]);
    const auto end = next + static_cast<std::ptrdiff_t>(in_[k].size());
    recv_[k].assign(next, end);
    next = end;
  }
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
