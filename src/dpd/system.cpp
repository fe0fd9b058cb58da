#include "dpd/system.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

#include "la/simd.hpp"
#include "resilience/blob.hpp"
#include "telemetry/registry.hpp"
#include "xmp/sched/lanes.hpp"

namespace dpd {

namespace {

/// Groot-Warren velocity prediction factor of the modified velocity-Verlet.
constexpr double kLambda = 0.65;
/// Effective boundary force amplitude of the SDF walls.
constexpr double kWallForce = 40.0;
/// Dissipative wall friction: together with bounce-back this enforces
/// no-slip (a wall made of particles would exert exactly this kind of drag
/// on near-wall fluid).
constexpr double kWallGamma = 12.0;
/// Fork-joins of one pair pass. A helper's rows stay staged until lane 0
/// replays them in the next wave, so a helper stage holds at most one
/// wave; each join costs about one chunk of imbalance.
constexpr std::size_t kPairWaves = 4;

}  // namespace

DpdSystem::DpdSystem(const DpdParams& prm, std::shared_ptr<Geometry> geom)
    : prm_(prm), geom_(std::move(geom)), pair_sigma_(std::sqrt(2.0 * kPairGamma * prm.kBT)) {
  if (prm.rc <= 0.0 || prm.dt <= 0.0 || prm.skin < 0.0)
    throw std::invalid_argument("DpdSystem: rc/dt/skin");
  if (!geom_) geom_ = std::make_shared<NoWalls>();
  nlist_.configure({prm_.box, prm_.periodic, prm_.rc, prm_.skin});
}

void DpdSystem::PairBatch::grow(std::size_t m) {
  if (dx.size() >= m) return;
  for (auto* v : {&dx, &dy, &dz, &r2, &dvx, &dvy, &dvz, &zeta}) v->resize(m);
}

void DpdSystem::PairStage::grow(std::size_t lanes) {
  if (j.size() >= lanes) return;
  j.resize(lanes);
  for (auto* v : {&fx, &fy, &fz}) v->resize(lanes);
}

std::size_t DpdSystem::add_particle(const Vec3& pos, const Vec3& vel, Species s) {
  if (distributed())
    throw std::logic_error("DpdSystem: add_particle while decomposed (unsupported)");
  if (!gid_.empty() && next_gid_ <= gid_.back())
    throw std::logic_error("DpdSystem: add_particle with next_gid " +
                           std::to_string(next_gid_) + " not above the largest gid " +
                           std::to_string(gid_.back()));
  pos_.push_back(pos);
  vel_.push_back(vel);
  frc_.push_back({});
  frc_old_.push_back({});
  species_.push_back(s);
  frozen_.push_back(0);
  gid_.push_back(next_gid_);
  is_ghost_.push_back(0);
  ++next_gid_;
  return pos_.size() - 1;
}

std::size_t DpdSystem::fill(double density, Species s, unsigned seed, double margin) {
  rng_.seed(seed);
  std::mt19937& rng = rng_;
  std::uniform_real_distribution<double> ux(0.0, prm_.box.x), uy(0.0, prm_.box.y),
      uz(0.0, prm_.box.z);
  std::normal_distribution<double> mb(0.0, std::sqrt(prm_.kBT));
  // Rejection-sample the fluid region; estimate its volume on the fly so the
  // target count matches `density` over the actual fluid volume.
  const std::size_t probes = 20000;
  std::size_t hits = 0;
  for (std::size_t k = 0; k < probes; ++k) {
    Vec3 p{ux(rng), uy(rng), uz(rng)};
    if (geom_->sdf(p) > margin) ++hits;
  }
  const double vol = prm_.box.x * prm_.box.y * prm_.box.z * static_cast<double>(hits) /
                     static_cast<double>(probes);
  const auto target = static_cast<std::size_t>(density * vol);
  std::size_t placed = 0;
  while (placed < target) {
    Vec3 p{ux(rng), uy(rng), uz(rng)};
    if (geom_->sdf(p) <= margin) continue;
    add_particle(p, {mb(rng), mb(rng), mb(rng)}, s);
    ++placed;
  }
  return placed;
}

void DpdSystem::remove_particles(const std::vector<std::size_t>& idx) {
  if (idx.empty()) return;
  if (distributed())
    throw std::logic_error("DpdSystem: remove_particles while decomposed (unsupported)");
  // mark the removed slots (out of range throws), then number the survivors
  const std::size_t n = size();
  new_index_.assign(n, 0);
  for (std::size_t i : idx) new_index_.at(i) = -1;
  keep_.clear();
  dead_gids_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (new_index_[i] < 0) {
      dead_gids_.push_back(gid_[i]);
      continue;
    }
    new_index_[i] = static_cast<long>(keep_.size());
    keep_.push_back(static_cast<std::uint32_t>(i));
  }
  merge_lanes(keep_, {}, slot_);
  nlist_.on_remap(new_index_);
  for (auto& m : modules_) m->on_remove_gids(dead_gids_);
}

void DpdSystem::add_module(std::shared_ptr<ForceModule> m) {
  if (distributed())
    throw std::logic_error("DpdSystem: add_module while decomposed (unsupported)");
  modules_.push_back(std::move(m));
}

double DpdSystem::force_reach() const {
  double r = prm_.rc;
  for (const auto& m : modules_) r = std::max(r, m->reach());
  return r;
}

std::size_t DpdSystem::owned_count() const {
  std::size_t c = 0;
  for (char g : is_ghost_)
    if (!g) ++c;
  return c;
}

ParticleRecord DpdSystem::particle_record(std::size_t i) const {
  ParticleRecord r;
  r.gid = gid_[i];
  r.species = static_cast<std::uint8_t>(species_[i]);
  r.frozen = static_cast<std::uint8_t>(frozen_[i]);
  r.ghost = static_cast<std::uint8_t>(is_ghost_[i]);
  r.pos = pos_[i];
  r.vel = vel_[i];
  // the integrator scratch may not be sized yet (before the first step)
  r.aux_vel = i < v_pred_.size() ? Vec3(v_pred_[i]) : Vec3{};
  r.frc_old = frc_old_[i];
  return r;
}

void DpdSystem::merge_particles(const std::vector<std::uint32_t>& keep,
                                std::span<const std::span<const ParticleRecord>> runs,
                                std::vector<std::uint32_t>& slot) {
  merge_lanes(keep, runs, slot);
  frc_.assign(size(), {});
  nlist_.invalidate();
}

void DpdSystem::merge_lanes(const std::vector<std::uint32_t>& keep,
                            std::span<const std::span<const ParticleRecord>> runs,
                            std::vector<std::uint32_t>& slot) {
  const std::size_t nk = keep.size();
  if (nk > 0 && keep.back() >= size())
    throw std::invalid_argument("DpdSystem::merge_particles: kept slot " +
                                std::to_string(keep.back()) + " out of range");
  // Pass 1, gids only: take the smallest head of the inputs until all are
  // drained, handing out slots in order. No lane changes before every gid
  // is known to be strictly ascending.
  std::size_t n = nk;
  for (const auto& run : runs) n += run.size();
  slot.resize(n);
  std::vector<std::size_t> at(runs.size(), 0), base(runs.size(), nk);
  for (std::size_t r = 1; r < runs.size(); ++r) base[r] = base[r - 1] + runs[r - 1].size();
  constexpr std::size_t kKeep = ~std::size_t{0};
  std::size_t k = 0;
  std::uint32_t prev = 0;
  for (std::size_t w = 0; w < n; ++w) {
    std::size_t src = kKeep;
    bool have = k < nk;
    std::uint32_t g = have ? gid_[keep[k]] : 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (at[r] == runs[r].size()) continue;
      const std::uint32_t h = runs[r][at[r]].gid;
      if (!have || h < g) {
        g = h;
        src = r;
        have = true;
      }
    }
    if (w > 0 && g <= prev)
      throw std::invalid_argument("DpdSystem::merge_particles: gid " + std::to_string(g) +
                                  " at slot " + std::to_string(w) +
                                  " is not above its predecessor's " + std::to_string(prev));
    slot[src == kKeep ? k++ : base[src] + at[src]++] = static_cast<std::uint32_t>(w);
    prev = g;
  }

  // Pass 2, per lane and in place: kept particles compact to the front
  // (keep[k] >= k, equal before the first gap), then spread to their slots
  // from the back (slot[k] >= k and ascending, so no unread entry is
  // overwritten; equal without records); the records fill the slots in
  // between. An unstepped system has no integrator scratch yet: its kept
  // particles read zeros there, as particle_record() does.
  std::size_t q0 = 0;
  while (q0 < nk && keep[q0] == q0) ++q0;
  v_pred_.resize(size());
  auto move_kept = [&](auto& lane) {
    for (std::size_t q = q0; q < nk; ++q) lane[q] = lane[keep[q]];
    lane.resize(n);
    if (n > nk)
      for (std::size_t q = nk; q-- > 0;) lane[slot[q]] = lane[q];
  };
  for (SoA3* a : {&pos_, &vel_, &v_pred_, &frc_, &frc_old_}) {
    move_kept(a->xs());
    move_kept(a->ys());
    move_kept(a->zs());
  }
  move_kept(species_);
  move_kept(frozen_);
  move_kept(gid_);
  move_kept(is_ghost_);
  std::size_t q = nk;
  for (const auto& run : runs)
    for (const ParticleRecord& r : run) {
      const std::size_t i = slot[q++];
      pos_.set(i, r.pos);
      vel_.set(i, r.vel);
      v_pred_.set(i, r.aux_vel);
      frc_old_.set(i, r.frc_old);
      species_[i] = static_cast<Species>(r.species);
      frozen_[i] = static_cast<char>(r.frozen);
      gid_[i] = r.gid;
      is_ghost_[i] = static_cast<char>(r.ghost);
    }
}

void DpdSystem::reset_particles(const std::vector<ParticleRecord>& recs) {
  const std::span<const ParticleRecord> run(recs);
  std::vector<std::uint32_t> slot;
  merge_particles({}, {&run, 1}, slot);
}

std::size_t DpdSystem::pair_rows(std::size_t lo, std::size_t hi, int lane, int parity,
                                 std::size_t* replayed) {
  // Compact, then compute, one batch of whole rows at a time. The first
  // sweep takes the minimum-image separation and r2 of every listed partner
  // of the batch's rows and keeps the in-range lanes, with their j, in CSR
  // order; only those lanes get the relative velocity and counter-based
  // noise, and one SIMD kernel call writes their forces straight into the
  // stage. The noise is keyed on *global* IDs, so a pair's random stream is
  // invariant to index compaction and to which rank computes it, and the
  // kernel is lane-pure, so a force does not depend on the batch it sits
  // in. Reads only the particle state and the list, and writes only the
  // lane's scratch and the rows' records: lanes run it side by side.
  PairLane& L = pair_lanes_[static_cast<std::size_t>(lane)];
  PairBatch& b = L.batch;
  PairStage& st = L.stage[parity];
  const std::size_t* offs = nlist_.offsets().data();
  const std::uint32_t* nbr = nlist_.neighbors().data();
  const double* px = pos_.xs().data();
  const double* py = pos_.ys().data();
  const double* pz = pos_.zs().data();
  const double* ux = vel_.xs().data();
  const double* uy = vel_.ys().data();
  const double* uz = vel_.zs().data();
  const double bx = prm_.box.x, by = prm_.box.y, bz = prm_.box.z;
  const bool perx = prm_.periodic[0], pery = prm_.periodic[1], perz = prm_.periodic[2];
  const double rc2 = prm_.rc * prm_.rc;
  const double inv_rc = 1.0 / prm_.rc;
  const double inv_sqrt_dt = 1.0 / std::sqrt(prm_.dt);
  const auto stage_id = static_cast<std::uint16_t>(2 * lane + parity);
  std::size_t total = 0;
  for (std::size_t r0 = lo; r0 < hi;) {
    // rows [r0, r1): at most kPairBatch listed pairs, or one longer row
    std::size_t r1 = r0 + 1;
    while (r1 < hi && offs[r1 + 1] - offs[r0] <= kPairBatch) ++r1;
    const std::size_t at = L.at[parity];
    b.grow(offs[r1] - offs[r0]);
    st.grow(at + offs[r1] - offs[r0]);
    std::uint32_t* sj = st.j.data() + at;
    std::size_t c = 0;
    for (std::size_t i = r0; i < r1; ++i) {
      const double xi = px[i], yi = py[i], zi = pz[i];
      const std::size_t c0 = c;
      for (std::size_t k = offs[i]; k < offs[i + 1]; ++k) {
        const std::uint32_t j = nbr[k];
        double dx = px[j] - xi;
        double dy = py[j] - yi;
        double dz = pz[j] - zi;
        if (perx) dx = min_image_1d(dx, bx);
        if (pery) dy = min_image_1d(dy, by);
        if (perz) dz = min_image_1d(dz, bz);
        const double r2 = dx * dx + dy * dy + dz * dz;
        b.dx[c] = dx;
        b.dy[c] = dy;
        b.dz[c] = dz;
        b.r2[c] = r2;
        sj[c] = j;
        // keep = !(r2 >= rc2 || r2 <= 1e-20), the exact negation of "out
        // of range or coincident", so a NaN separation (a non-finite
        // position) stays in and poisons both partners. `|` instead of
        // `||` evaluates both side-effect-free compares without a branch:
        // about half the listed pairs are out of range, so a branch here
        // would mispredict often.
        c += !((r2 >= rc2) | (r2 <= 1e-20));
      }
      row_start_[i] = at + c0;
      row_count_[i] = c - c0;
      row_stage_[i] = stage_id;
    }
    for (std::size_t i = r0; i < r1; ++i) {
      const double uxi = ux[i], uyi = uy[i], uzi = uz[i];
      const std::uint32_t gi = gid_[i];
      const std::size_t end = row_start_[i] - at + row_count_[i];
      for (std::size_t k = row_start_[i] - at; k < end; ++k) {
        const std::uint32_t j = sj[k];
        b.dvx[k] = ux[j] - uxi;
        b.dvy[k] = uy[j] - uyi;
        b.dvz[k] = uz[j] - uzi;
        b.zeta[k] = pair_gaussian_like(step_, gi, gid_[j]);
      }
    }
    // f = (dx,dy,dz) fmag / r is the force on j; i receives -f (the kernel
    // header documents the lane math)
    la::simd::dpd_pair_forces(c, inv_rc, inv_sqrt_dt, b.dx.data(), b.dy.data(), b.dz.data(),
                              b.r2.data(), b.dvx.data(), b.dvy.data(), b.dvz.data(),
                              b.zeta.data(), kPairA, kPairGamma, pair_sigma_, st.fx.data() + at,
                              st.fy.data() + at, st.fz.data() + at);
    total += c;
    if (replayed && *replayed == r0) {
      pair_scatter(r0, r1);  // every earlier row is done; the stage drains
      *replayed = r1;
    } else {
      L.at[parity] += c;
    }
    r0 = r1;
  }
  return total;
}

void DpdSystem::pair_scatter(std::size_t lo, std::size_t hi) {
  double* gx = frc_.xs().data();
  double* gy = frc_.ys().data();
  double* gz = frc_.zs().data();
  for (std::size_t i = lo; i < hi; ++i) {
    const PairStage& st = pair_lanes_[row_stage_[i] / 2].stage[row_stage_[i] % 2];
    const std::uint32_t* sj = st.j.data();
    const double* fx = st.fx.data();
    const double* fy = st.fy.data();
    const double* fz = st.fz.data();
    // every partner j > i, so i's running sum can live in registers: the
    // same subtractions in the same order as updating frc_ in place
    double xi = gx[i], yi = gy[i], zi = gz[i];
    const std::size_t end = row_start_[i] + row_count_[i];
    for (std::size_t k = row_start_[i]; k < end; ++k) {
      const std::uint32_t j = sj[k];
      xi -= fx[k];
      yi -= fy[k];
      zi -= fz[k];
      gx[j] += fx[k];
      gy[j] += fy[k];
      gz[j] += fz[k];
    }
    gx[i] = xi;
    gy[i] = yi;
    gz[i] = zi;
  }
}

void DpdSystem::pair_forces() {
  // Batched Groot-Warren pair forces over the Verlet list as one staged
  // pass: pair_rows computes runs of rows' in-range lanes into a stage, one
  // kernel call per batch of rows, and pair_scatter replays finished rows
  // into frc_ in canonical CSR order.
  // Out-of-range lanes are dropped before any force arithmetic — skipped,
  // never zeroed — so the accumulation order of the contributing pairs is a
  // function of the particle state alone, not of when the list was built
  // (bitwise restarts). A row is replayed once every earlier row is done.
  //
  // The rows go out in chunks of about equal listed pairs, in kPairWaves
  // fork-joins (xmp/sched/lanes.hpp). In each wave lane 0, the caller,
  // first replays the helpers' rows of the wave before, then claims the
  // wave's chunks from the front and replays each batch of rows as it
  // computes it;
  // the helper lanes claim chunks from the back. A helper writes a wave's
  // rows while lane 0 replays the wave before, so it alternates two
  // stages by wave parity. With a halo update in flight (overlap), rows
  // touching a ghost wait for finish_refresh, and the rows after the first
  // of them stay staged until it is done. Compute out of order, accumulate
  // in order: bitwise the blocking single-lane pass at any lane count
  // (docs/PERF.md "Overlapped halos", "Intra-rank lanes").
  ensure_neighbors();
  const bool overlap = exchange_ && exchange_->overlap_pending();
  if (overlap &&
      (row_class_version_ != nlist_.version() || row_interior_.size() != pos_.size()))
    classify_rows();
  const auto& offs = nlist_.offsets();
  const std::size_t n = pos_.size();
  row_start_.resize(n);
  row_count_.resize(n);
  row_stage_.resize(n);
  auto deferred = [&](std::size_t i) { return overlap && !row_interior_[i]; };
  // the first row at or past `from` that is deferred or at least `end`
  auto replayable_end = [&](std::size_t from, std::size_t end) {
    while (from < end && !deferred(from)) ++from;
    return from;
  };
  const int want = xmp::lanes::width();
  if (pair_lanes_.size() < static_cast<std::size_t>(want))
    pair_lanes_.resize(static_cast<std::size_t>(want));
  const std::size_t chunks = static_cast<std::size_t>(xmp::lanes::kChunksPerLane * want);
  // chunk c starts at the first row holding the c-th share of the pairs
  auto chunk_row = [&](std::size_t c) -> std::size_t {
    if (c >= chunks) return n;
    const std::size_t target = offs[n] * c / chunks;
    return static_cast<std::size_t>(
        std::lower_bound(offs.begin(), offs.begin() + n, target) - offs.begin());
  };
  // the wave's unclaimed chunks [front, back), packed as back << 32 | front
  std::atomic<std::uint64_t> unclaimed{0};
  auto claim = [&](bool front) -> std::size_t {
    std::uint64_t e = unclaimed.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t f = e & 0xffffffffu, b = e >> 32;
      if (f >= b) return chunks;
      if (unclaimed.compare_exchange_weak(e, front ? e + 1 : e - (std::uint64_t{1} << 32),
                                          std::memory_order_relaxed))
        return static_cast<std::size_t>(front ? f : b - 1);
    }
  };
  std::size_t next = 0;                  // first row not yet replayed
  std::size_t wave_lo = 0, wave_hi = 0;  // the wave's chunks
  int parity = 0;                        // the helpers' stage this wave
  auto body = [&](int lane, int) {
    // the lane's state lives in its own cache lines and registers: the
    // lanes share no written line but the claim cursor while they run
    PairLane& L = pair_lanes_[static_cast<std::size_t>(lane)];
    const bool ov = overlap;
    const int p = lane == 0 ? 0 : parity;
    // lane 0's replay cursor; `next` is lane 0's alone during the pass
    std::size_t in = 0, rows = 0, replayed = 0;
    if (lane == 0) {
      // the helpers' rows of the wave before, unless a deferred row blocks
      replayed = replayable_end(next, chunk_row(wave_lo));
      pair_scatter(next, replayed);
    }
    for (std::size_t c = claim(lane == 0); c < chunks; c = claim(lane == 0)) {
      const std::size_t hi = chunk_row(c + 1);
      // the chunk's runs of interior rows, split at the deferred ones
      for (std::size_t i = chunk_row(c); i < hi;) {
        if (ov && !row_interior_[i]) {
          ++i;
          continue;
        }
        const std::size_t first = i;
        for (; i < hi && !(ov && !row_interior_[i]); ++i) rows += offs[i + 1] > offs[i];
        in += pair_rows(first, i, lane, p, lane == 0 ? &replayed : nullptr);
      }
    }
    L.in_range = in;
    L.rows = rows;
    if (lane == 0) next = replayed;
  };
  for (PairLane& L : pair_lanes_) L.at[0] = L.at[1] = 0;
  std::size_t in_range = 0, interior_rows = 0, boundary_rows = 0;
  int lanes_used = 1;
  double wait_s = 0.0;
  for (std::size_t w = 0; w < kPairWaves; ++w) {
    wave_lo = chunks * w / kPairWaves;
    wave_hi = chunks * (w + 1) / kPairWaves;
    parity = static_cast<int>(w % 2);
    // the helpers' stage of this parity restarts once the rows it held,
    // two waves back, are replayed
    if (w >= 2 && next >= chunk_row(chunks * (w - 1) / kPairWaves))
      for (std::size_t k = 1; k < pair_lanes_.size(); ++k) pair_lanes_[k].at[parity] = 0;
    unclaimed.store(static_cast<std::uint64_t>(wave_hi) << 32 | wave_lo,
                    std::memory_order_relaxed);
    const xmp::lanes::Pass pass = xmp::lanes::run(want, body);
    lanes_used = std::max(lanes_used, pass.lanes);
    wait_s += pass.wait_s;
    for (int k = 0; k < pass.lanes; ++k) {
      in_range += pair_lanes_[static_cast<std::size_t>(k)].in_range;
      interior_rows += pair_lanes_[static_cast<std::size_t>(k)].rows;
    }
  }
  // the helpers' rows of the last wave
  const std::size_t stop = replayable_end(next, n);
  pair_scatter(next, stop);
  next = stop;
  // complete the in-flight halo update; ghost slots are fresh from here on
  if (overlap) exchange_->finish_refresh(*this);
  // Row `next` is the first deferred row: compute the run of deferred rows
  // it starts (into lane 0's stage, after its staged rows) and replay it as
  // it goes, then the staged rows up to the next deferred one, repeat.
  while (next < n) {
    std::size_t end = next;
    for (; end < n && deferred(end); ++end) boundary_rows += offs[end + 1] > offs[end];
    in_range += pair_rows(next, end, 0, 0, &next);
    end = replayable_end(end, n);
    pair_scatter(next, end);
    next = end;
  }
  if (overlap) {
    telemetry::count("dpd.rows.interior", static_cast<double>(interior_rows));
    telemetry::count("dpd.rows.boundary", static_cast<double>(boundary_rows));
  }
  telemetry::count("dpd.pairs.in_range", static_cast<double>(in_range));
  telemetry::count("dpd.lanes", static_cast<double>(lanes_used));
  if (lanes_used > 1) telemetry::count("dpd.lanes.wait_us", 1e6 * wait_s);
}

void DpdSystem::classify_rows() {
  // A CSR row is *interior* when neither i nor any neighbor in its run is a
  // ghost: every lane then reads only owned (locally integrated, always
  // fresh) pos/vel, so the row can be computed while a split-phase halo
  // update is still in flight. The classification only depends on the list
  // topology and the ghost mask — both fixed while the list version holds —
  // so it is cached against nlist_.version().
  const auto& offs = nlist_.offsets();
  const auto& nbr = nlist_.neighbors();
  const std::size_t n = pos_.size();
  row_interior_.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_ghost_[i]) {
      row_interior_[i] = 0;
      continue;
    }
    for (std::size_t k = offs[i]; k < offs[i + 1]; ++k)
      if (is_ghost_[nbr[k]]) {
        row_interior_[i] = 0;
        break;
      }
  }
  row_class_version_ = nlist_.version();
}

void DpdSystem::compute_forces() {
  telemetry::ScopedPhase phase("dpd.forces");
  const std::size_t n = pos_.size();
  frc_.assign(n, {});
  pair_forces();
  // effective wall boundary force: normal repulsion + dissipative friction
  // + the fluctuation-dissipation-matched random kicks (a particle wall
  // would deliver both; omitting the random part cools the near-wall fluid)
  const double sig_w = std::sqrt(2.0 * kWallGamma * prm_.kBT);
  const double inv_sqrt_dt_w = 1.0 / std::sqrt(prm_.dt);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 p = pos_[i];
    const double d = geom_->sdf(p);
    if (d < prm_.rc) {
      const double w = 1.0 - std::max(d, 0.0) / prm_.rc;
      frc_[i] += geom_->normal(p) * (kWallForce * w * w);
      frc_[i] -= vel_[i] * (kWallGamma * w * w);
      const std::uint32_t gi = gid_[i];
      frc_[i] += Vec3{pair_gaussian_like(step_ * 3 + 0, gi, gi),
                      pair_gaussian_like(step_ * 3 + 1, gi, gi),
                      pair_gaussian_like(step_ * 3 + 2, gi, gi)} *
                 (sig_w * w * inv_sqrt_dt_w);
    }
  }
  if (body_force_)
    for (std::size_t i = 0; i < n; ++i) frc_[i] += body_force_(pos_[i], species_[i]);
  for (auto& m : modules_) m->add_forces(*this);
}

void DpdSystem::reflect_walls(std::size_t i) {
  const double d = geom_->sdf(pos_[i]);
  if (d >= 0.0) return;
  // bounce back: reflect position to the fluid side, reverse velocity
  const Vec3 nrm = geom_->normal(pos_[i]);
  pos_[i] += nrm * (-2.0 * d);
  vel_[i] = vel_[i] * -1.0;
}

void DpdSystem::step() {
  telemetry::ScopedPhase phase("dpd.step");
  const double dt = prm_.dt;
  if (step_ == 0) {
    if (exchange_) exchange_->refresh(*this);
    compute_forces();
  }

  // Groot-Warren modified velocity-Verlet. v_pred_ is a persistent scratch
  // buffer (reallocating it every step showed up in the step profile);
  // every entry is written before use, so no re-initialisation is needed.
  // Ghost particles are integrated by their owning rank; the exchange hook
  // refreshes their position/velocity images before each force pass.
  const std::size_t n = pos_.size();
  v_pred_.resize(n);
  {
    telemetry::ScopedPhase integrate("dpd.integrate");
    for (std::size_t i = 0; i < n; ++i) {
      if (is_ghost_[i] || frozen_[i]) {
        v_pred_[i] = {};
        continue;
      }
      pos_[i] += vel_[i] * dt + frc_[i] * (0.5 * dt * dt);
      v_pred_[i] = vel_[i] + frc_[i] * (kLambda * dt);
      Vec3 p = pos_[i];
      wrap(p);
      pos_[i] = p;
      reflect_walls(i);
    }
  }
  frc_old_ = frc_;
  // force evaluation at predicted velocities (vel_ holds the prediction
  // between the swaps; the refresh therefore ships predicted velocities to
  // ghosts, which is exactly what the force evaluation needs)
  vel_.swap(v_pred_);
  if (exchange_) exchange_->refresh(*this);
  compute_forces();
  vel_.swap(v_pred_);
  {
    telemetry::ScopedPhase integrate("dpd.integrate");
    // the refresh may have migrated particles: re-read the size
    const std::size_t nn = pos_.size();
    for (std::size_t i = 0; i < nn; ++i) {
      if (is_ghost_[i]) continue;
      if (frozen_[i]) {
        vel_[i] = {};
        continue;
      }
      vel_[i] += (frc_old_[i] + frc_[i]) * (0.5 * dt);
    }
  }
  ++step_;
}

double DpdSystem::kinetic_temperature() const {
  double ke = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    if (is_ghost_[i] || frozen_[i]) continue;
    ke += vel_[i].norm2();
    ++n;
  }
  if (n == 0) return 0.0;
  return ke / (3.0 * static_cast<double>(n));
}

Vec3 DpdSystem::total_momentum() const {
  Vec3 p{};
  for (std::size_t i = 0; i < pos_.size(); ++i)
    if (!is_ghost_[i] && !frozen_[i]) p += vel_[i];
  return p;
}

void DpdSystem::save_state(resilience::BlobWriter& w) const {
  w.pod(step_);
  w.vec(pos_.xs());
  w.vec(pos_.ys());
  w.vec(pos_.zs());
  w.vec(vel_.xs());
  w.vec(vel_.ys());
  w.vec(vel_.zs());
  w.vec(frc_.xs());
  w.vec(frc_.ys());
  w.vec(frc_.zs());
  w.vec(frc_old_.xs());
  w.vec(frc_old_.ys());
  w.vec(frc_old_.zs());
  w.vec(species_);
  w.vec(frozen_);
  w.vec(gid_);
  w.vec(is_ghost_);
  w.pod(next_gid_);
  resilience::put_rng(w, rng_);
}

void DpdSystem::load_state(resilience::BlobReader& r) {
  r.pod(step_);
  pos_.xs() = r.vec<double>();
  pos_.ys() = r.vec<double>();
  pos_.zs() = r.vec<double>();
  vel_.xs() = r.vec<double>();
  vel_.ys() = r.vec<double>();
  vel_.zs() = r.vec<double>();
  frc_.xs() = r.vec<double>();
  frc_.ys() = r.vec<double>();
  frc_.zs() = r.vec<double>();
  frc_old_.xs() = r.vec<double>();
  frc_old_.ys() = r.vec<double>();
  frc_old_.zs() = r.vec<double>();
  species_ = r.vec<Species>();
  frozen_ = r.vec<char>();
  gid_ = r.vec<std::uint32_t>();
  is_ghost_ = r.vec<char>();
  const std::size_t n = pos_.xs().size();
  if (pos_.ys().size() != n || pos_.zs().size() != n || vel_.xs().size() != n ||
      vel_.ys().size() != n || vel_.zs().size() != n || frc_.xs().size() != n ||
      frc_.ys().size() != n || frc_.zs().size() != n || frc_old_.xs().size() != n ||
      frc_old_.ys().size() != n || frc_old_.zs().size() != n || species_.size() != n ||
      frozen_.size() != n || gid_.size() != n || is_ghost_.size() != n)
    throw resilience::CorruptError("DpdSystem: inconsistent array lengths in checkpoint");
  // local_of binary-searches gid_
  for (std::size_t i = 1; i < n; ++i)
    if (gid_[i - 1] >= gid_[i])
      throw resilience::CorruptError(
          "DpdSystem: checkpoint gids not strictly ascending at index " + std::to_string(i));
  r.pod(next_gid_);
  resilience::get_rng(r, rng_);
  nlist_.invalidate();
}

}  // namespace dpd
