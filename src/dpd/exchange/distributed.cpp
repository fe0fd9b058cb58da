#include "dpd/exchange/distributed.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "resilience/blob.hpp"
#include "telemetry/registry.hpp"

namespace dpd::exchange {

namespace {

/// rebalance() moves the cut planes once the max owned count exceeds this
/// multiple of the mean.
constexpr double kRebalanceThreshold = 1.2;

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFFu;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<ParticleRecord> owned_records(const DpdSystem& sys) {
  std::vector<ParticleRecord> recs;
  recs.reserve(sys.owned_count());
  for (std::size_t i = 0; i < sys.size(); ++i)
    if (!sys.is_ghost(i)) recs.push_back(sys.particle_record(i));
  return recs;
}

std::uint64_t digest_records(std::vector<ParticleRecord> recs) {
  std::sort(recs.begin(), recs.end(),
            [](const ParticleRecord& a, const ParticleRecord& b) { return a.gid < b.gid; });
  std::uint64_t h = 14695981039346656037ull;
  for (const ParticleRecord& r : recs) {
    h = fnv1a_mix(h, r.gid);
    for (double v : {r.pos.x, r.pos.y, r.pos.z, r.vel.x, r.vel.y, r.vel.z})
      h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

GridDims resolve_dims(const DistOptions& opt, int nranks, const Vec3& box) {
  if (opt.dims.count() == 0) return auto_dims(nranks, box);
  if (opt.dims.count() != nranks)
    throw std::invalid_argument("DistributedDpd: dims cover " +
                                std::to_string(opt.dims.count()) + " ranks, comm has " +
                                std::to_string(nranks));
  return opt.dims;
}

}  // namespace

std::uint64_t trajectory_digest(const DpdSystem& sys) {
  return digest_records(owned_records(sys));
}

DistributedDpd::DistributedDpd(const xmp::Comm& comm, DpdSystem& sys, DistOptions opt)
    : comm_(comm),
      sys_(sys),
      opt_(opt),
      decomp_(sys.params().box, sys.params().periodic, resolve_dims(opt, comm.size(), sys.params().box),
              sys.force_reach() + sys.params().skin),
      migrate_(comm_, decomp_),
      halo_(comm_, decomp_) {
  opt_.dims = decomp_.dims();
  sys_.set_exchange(this);
  sys_.set_ghost_pair_filter(true);
}

DistributedDpd::~DistributedDpd() {
  sys_.set_exchange(nullptr);
  sys_.set_ghost_pair_filter(false);
}

void DistributedDpd::distribute() {
  if (distributed_) throw std::logic_error("DistributedDpd: distribute() called twice");
  // the replicated-setup contract is checkable cheaply: sizes must agree
  const auto n = static_cast<std::int64_t>(sys_.size());
  if (comm_.allreduce(n, xmp::Op::Min) != comm_.allreduce(n, xmp::Op::Max))
    throw std::runtime_error(
        "DistributedDpd: ranks hold different particle counts — the initial population must "
        "be built identically on every rank before distribute()");
  migrate_.claim(sys_);
  rebuild_halo(sys_);
  distributed_ = true;
  rebuild_pending_ = false;
}

void DistributedDpd::refresh(DpdSystem& sys) {
  if (!distributed_)
    throw std::logic_error("DistributedDpd: stepping before distribute() (or restart load)");
  telemetry::ScopedPhase phase("dpd.exchange");
  ++refresh_count_;
  // Rebalance cadence first: a moved layout already ships a fresh halo. The
  // counter is replicated (every rank refreshes in lockstep), so the inner
  // collective is entered by all ranks or none.
  if (opt_.rebalance_every > 0 && refresh_count_ % static_cast<std::uint64_t>(opt_.rebalance_every) == 0 &&
      rebalance())
    return;
  // Rebuild when any rank's Verlet list is stale: a particle anywhere
  // drifted past skin/2 since the last relayout, which is exactly what
  // keeps the rc+skin halo a superset of every rc partner set. The decision
  // is an allreduce so every rank takes the same branch. The force pass
  // after every relayout builds the list, except after distribute(): the
  // first refresh builds it then, and since stepping starts after
  // distribute() (its relayout zeroes the forces), nothing has moved since.
  if (!rebuild_pending_ && !sys.neighbor_list().valid()) sys.ensure_neighbors();
  const bool stale = rebuild_pending_ || sys.neighbor_list().stale(sys.positions());
  if (comm_.allreduce(stale ? 1.0 : 0.0, xmp::Op::Max) > 0.0) {
    full_rebuild(sys);
    return;
  }
  halo_.begin_update(sys);
  if (opt_.overlap) {
    // Split phase: lanes fly while the engine computes interior rows; the
    // engine's pair pass calls finish_refresh() before touching ghosts.
    overlap_pending_ = true;
    overlap_t0_ = std::chrono::steady_clock::now();
  } else {
    halo_.finish_update(sys);
  }
}

void DistributedDpd::finish_refresh(DpdSystem& sys) {
  if (!overlap_pending_) return;
  telemetry::count("dpd.halo.overlap_us",
                   std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                            overlap_t0_)
                       .count());
  halo_.finish_update(sys);
  overlap_pending_ = false;
}

bool DistributedDpd::rebalance() {
  if (!distributed_)
    throw std::logic_error("DistributedDpd: rebalance() before distribute() (or restart load)");
  const auto mine = static_cast<double>(sys_.owned_count());
  const double maxc = comm_.allreduce(mine, xmp::Op::Max);
  const double mean = comm_.allreduce(mine, xmp::Op::Sum) / comm_.size();
  if (mean <= 0.0 || maxc <= kRebalanceThreshold * mean) return false;

  // Per-axis marginal histograms of owned positions; the allreduce
  // replicates them, so every rank derives identical cut planes.
  constexpr int kBins = 128;
  std::vector<double> h(3 * kBins, 0.0);
  const Vec3 box = sys_.params().box;
  const double L[3] = {box.x, box.y, box.z};
  const auto& ghost = sys_.ghost_mask();
  for (std::size_t i = 0; i < sys_.size(); ++i) {
    if (ghost[i]) continue;
    const Vec3 p = sys_.positions()[i];
    const double c[3] = {p.x, p.y, p.z};
    for (int a = 0; a < 3; ++a) {
      const int b = std::clamp(static_cast<int>(c[a] / L[a] * kBins), 0, kBins - 1);
      h[static_cast<std::size_t>(a * kBins + b)] += 1.0;
    }
  }
  const auto g = comm_.allreduce(std::span<const double>(h), xmp::Op::Sum);
  std::array<std::vector<double>, 3> hist;
  for (int a = 0; a < 3; ++a)
    hist[static_cast<std::size_t>(a)].assign(g.begin() + a * kBins, g.begin() + (a + 1) * kBins);
  if (!decomp_.rebalance(hist)) return false;
  telemetry::count("dpd.rebalance.count", 1.0);
  // Ownership follows the moved cuts; the bounded per-cut step keeps every
  // transfer inside the new neighbour shell (see Decomposition::rebalance).
  full_rebuild(sys_);
  return true;
}

void DistributedDpd::full_rebuild(DpdSystem& sys) {
  telemetry::ScopedPhase phase("dpd.exchange.rebuild");
  {
    telemetry::ScopedPhase migrate("dpd.exchange.migrate");
    migrate_.exchange(sys);
  }
  rebuild_halo(sys);
  rebuild_pending_ = false;
  ++rebuilds_;
}

void DistributedDpd::rebuild_halo(DpdSystem& sys) {
  {
    telemetry::ScopedPhase halo("dpd.exchange.halo");
    halo_.ship(sys, migrate_.kept(), migrate_.arrivals());
  }
  telemetry::ScopedPhase relayout("dpd.exchange.relayout");
  halo_.relayout(sys, migrate_.kept(), migrate_.arrivals());
}

std::vector<ParticleRecord> DistributedDpd::gather(int root) const {
  auto mine = owned_records(sys_);
  auto all = comm_.gatherv(std::span<const ParticleRecord>(mine), root);
  if (comm_.rank() == root)
    std::sort(all.begin(), all.end(),
              [](const ParticleRecord& a, const ParticleRecord& b) { return a.gid < b.gid; });
  return all;
}

std::uint64_t DistributedDpd::global_digest() const {
  auto mine = owned_records(sys_);
  auto all = comm_.gatherv(std::span<const ParticleRecord>(mine), 0);
  std::vector<std::uint64_t> h{comm_.rank() == 0 ? digest_records(std::move(all)) : 0};
  comm_.bcast(h, 0);
  return h[0];
}

double DistributedDpd::kinetic_temperature() const {
  double ke = 0.0, n = 0.0;
  const auto& ghost = sys_.ghost_mask();
  const auto& frozen = sys_.frozen();
  for (std::size_t i = 0; i < sys_.size(); ++i) {
    if (ghost[i] || frozen[i]) continue;
    ke += Vec3(sys_.velocities()[i]).norm2();
    n += 1.0;
  }
  ke = comm_.allreduce(ke, xmp::Op::Sum);
  n = comm_.allreduce(n, xmp::Op::Sum);
  return n > 0.0 ? ke / (3.0 * n) : 0.0;
}

Vec3 DistributedDpd::total_momentum() const {
  Vec3 p{};
  const auto& ghost = sys_.ghost_mask();
  const auto& frozen = sys_.frozen();
  for (std::size_t i = 0; i < sys_.size(); ++i)
    if (!ghost[i] && !frozen[i]) p += sys_.velocities()[i];
  const double xyz[3] = {p.x, p.y, p.z};
  const auto sum = comm_.allreduce(std::span<const double>(xyz, 3), xmp::Op::Sum);
  return {sum[0], sum[1], sum[2]};
}

std::int64_t DistributedDpd::global_count() const {
  return comm_.allreduce(static_cast<std::int64_t>(sys_.owned_count()), xmp::Op::Sum);
}

namespace {
struct PlateletRow {
  std::uint32_t slot = 0;
  std::uint32_t state = 0;
  double trigger = 0.0;
};
}  // namespace

void DistributedDpd::sync_platelets(PlateletModel& model) {
  std::vector<PlateletRow> mine;
  for (std::size_t k = 0; k < model.total(); ++k) {
    const long li = sys_.local_of(model.particles()[k]);
    if (li < 0 || sys_.is_ghost(static_cast<std::size_t>(li))) continue;  // owner reports
    mine.push_back({static_cast<std::uint32_t>(k),
                    static_cast<std::uint32_t>(model.state_of(k)), model.trigger_time_of(k)});
  }
  const auto rows = comm_.allgatherv(std::span<const PlateletRow>(mine));
  for (const PlateletRow& r : rows) {
    model.set_slot_state(r.slot, static_cast<PlateletState>(r.state), r.trigger);
    if (static_cast<PlateletState>(r.state) != PlateletState::Bound) continue;
    // freeze every local copy (owned or ghost) of a bound platelet; the
    // owner already froze its own in the update's apply phase
    const long li = sys_.local_of(model.particles()[r.slot]);
    if (li < 0) continue;
    const auto i = static_cast<std::size_t>(li);
    sys_.frozen()[i] = 1;
    sys_.velocities()[i] = {};
  }
}

void DistributedDpd::save_state(resilience::BlobWriter& w) const {
  w.pod(static_cast<std::int32_t>(opt_.dims.px));
  w.pod(static_cast<std::int32_t>(opt_.dims.py));
  w.pod(static_cast<std::int32_t>(opt_.dims.pz));
  w.pod(decomp_.halo_width());
  w.pod(static_cast<std::uint8_t>(distributed_));
  // Cut planes: a rebalanced layout must survive restart, or the forced
  // post-load migration would run under uniform cuts that no longer own the
  // particles (and could need paths past the neighbour shell).
  for (int a = 0; a < 3; ++a) w.vec(decomp_.bounds(a));
}

void DistributedDpd::load_state(resilience::BlobReader& r) {
  GridDims dims;
  dims.px = r.pod<std::int32_t>();
  dims.py = r.pod<std::int32_t>();
  dims.pz = r.pod<std::int32_t>();
  const double halo = r.pod<double>();
  const bool was_distributed = r.pod<std::uint8_t>() != 0;
  if (dims.px != opt_.dims.px || dims.py != opt_.dims.py || dims.pz != opt_.dims.pz)
    throw resilience::LayoutError("DistributedDpd: checkpoint process grid mismatch");
  if (halo != decomp_.halo_width())
    throw resilience::LayoutError("DistributedDpd: checkpoint halo width mismatch");
  for (int a = 0; a < 3; ++a) {
    // vec() checks the count against the bytes left before allocating
    const auto b = r.vec<double>();
    if (b == decomp_.bounds(a)) continue;
    try {
      decomp_.set_bounds(a, b);
    } catch (const std::invalid_argument& e) {
      throw resilience::CorruptError(std::string("DistributedDpd: checkpoint cut planes: ") +
                                     e.what());
    }
  }
  distributed_ = was_distributed;
  // plans and the Verlet list are not serialised: force a rebuild, which
  // re-derives them from the (already loaded) per-rank particle state
  rebuild_pending_ = true;
}

}  // namespace dpd::exchange
