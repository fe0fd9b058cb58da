// Tests for the spatial domain decomposition (src/dpd/exchange/): grid
// geometry, halo/migration protocols, and the equivalence gate — N-rank
// distributed runs reproduce the single-rank trajectory digest *bitwise*,
// with blocking and overlapped halo refreshes alike, including across a
// mid-run checkpoint/restart and under checked xmp mode. Every in-place
// layout rebuild is replayed against the record-based oracle in
// tests/reference and must match it bitwise. Also pins the gid-keyed pair
// RNG (trajectories invariant to local index layout and to removal
// compaction), the exchange telemetry counters / CommMatrix attribution,
// how DistributedDpd::load_state handles hostile input, and that a rank
// killed with an overlapped halo update in flight ends the whole run.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dpd/exchange/decomposition.hpp"
#include "dpd/exchange/distributed.hpp"
#include "dpd/exchange/exchangers.hpp"
#include "dpd/geometry.hpp"
#include "dpd/platelets.hpp"
#include "dpd/system.hpp"
#include "rbc/bonds.hpp"
#include "reference/dpd_exchange_reference.hpp"
#include "resilience/blob.hpp"
#include "resilience/fault.hpp"
#include "telemetry/comm_matrix.hpp"
#include "telemetry/registry.hpp"
#include "xmp/comm.hpp"

namespace {

using dpd::Vec3;
using dpd::exchange::Decomposition;
using dpd::exchange::DistOptions;
using dpd::exchange::DistributedDpd;
using dpd::exchange::GridDims;
using dpd::exchange::trajectory_digest;

// ---------------------------------------------------------------- geometry

TEST(Decomposition, AutoDimsCoverRanksAndSplitLongAxesFirst) {
  const Vec3 box{20.0, 10.0, 10.0};
  for (int n : {1, 2, 3, 4, 6, 8}) {
    const GridDims d = dpd::exchange::auto_dims(n, box);
    EXPECT_EQ(d.count(), n) << n << " ranks";
  }
  // splitting the long axis minimises the per-rank surface
  EXPECT_EQ(dpd::exchange::auto_dims(2, box).px, 2);
  const GridDims d4 = dpd::exchange::auto_dims(4, box);
  EXPECT_GE(d4.px, 2);
}

TEST(Decomposition, RankOfPositionRoundTripsAndWraps) {
  const Vec3 box{20.0, 10.0, 10.0};
  Decomposition d(box, {true, true, false}, {2, 2, 1}, 1.3);
  for (int r = 0; r < d.nranks(); ++r) {
    const auto sd = d.subdomain(r);
    const Vec3 c = (sd.lo + sd.hi) * 0.5;
    EXPECT_EQ(d.rank_of_position(c), r);
  }
  // periodic wrap on x: a point one box-length out lands in the same rank
  EXPECT_EQ(d.rank_of_position({1.0, 1.0, 5.0}), d.rank_of_position({21.0, 1.0, 5.0}));
  // non-periodic z: points beyond the wall clamp into the boundary slab
  EXPECT_EQ(d.rank_of_position({1.0, 1.0, -3.0}), d.rank_of_position({1.0, 1.0, 0.1}));
}

TEST(Decomposition, NeighborsAreSymmetricSortedAndExcludeSelf) {
  Decomposition d({20.0, 10.0, 10.0}, {true, true, false}, {2, 2, 1}, 1.3);
  for (int r = 0; r < d.nranks(); ++r) {
    const auto& nb = d.neighbors(r);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (int n : nb) {
      EXPECT_NE(n, r);
      const auto& back = d.neighbors(n);
      EXPECT_TRUE(std::find(back.begin(), back.end(), r) != back.end());
    }
  }
}

TEST(Decomposition, Dist2ToSubdomainUsesMinimumImage) {
  Decomposition d({20.0, 10.0, 10.0}, {true, true, false}, {2, 1, 1}, 1.3);
  // rank 0 owns x in [0, 10); a point at x = 19.9 is 0.1 away through the
  // periodic seam, not 9.9 away through the interior
  EXPECT_NEAR(d.dist2_to_subdomain({19.9, 5.0, 5.0}, 0), 0.01, 1e-12);
  EXPECT_TRUE(d.in_halo_of({19.9, 5.0, 5.0}, 0));
  EXPECT_FALSE(d.in_halo_of({15.0, 5.0, 5.0}, 0));
}

// --------------------------------------------------- movable cut planes

TEST(Decomposition, SetBoundsMovesOwnershipAndValidates) {
  Decomposition d({20.0, 10.0, 10.0}, {true, true, false}, {2, 1, 1}, 1.3);
  EXPECT_EQ(d.bounds(0), (std::vector<double>{0.0, 10.0, 20.0}));
  d.set_bounds(0, {0.0, 12.5, 20.0});
  EXPECT_EQ(d.rank_of_position({11.0, 5.0, 5.0}), 0);
  EXPECT_EQ(d.rank_of_position({13.0, 5.0, 5.0}), 1);
  EXPECT_NEAR(d.subdomain(0).hi.x, 12.5, 1e-12);
  EXPECT_THROW(d.set_bounds(3, {0.0, 10.0, 20.0}), std::invalid_argument);
  EXPECT_THROW(d.set_bounds(0, {0.0, 20.0}), std::invalid_argument);          // wrong count
  EXPECT_THROW(d.set_bounds(0, {1.0, 10.0, 20.0}), std::invalid_argument);    // span
  EXPECT_THROW(d.set_bounds(0, {0.0, 0.0, 20.0}), std::invalid_argument);     // not ascending
}

TEST(Decomposition, RebalanceMovesCutsTowardEqualCountsWithBoundedShift) {
  const double halo = 1.3;
  Decomposition d({20.0, 10.0, 10.0}, {true, true, false}, {2, 1, 1}, halo);
  std::array<std::vector<double>, 3> hist;
  hist[0].assign(8, 0.0);
  hist[0][0] = hist[0][1] = 100.0;  // all mass in x < 5: equal-count cut is 2.5
  ASSERT_TRUE(d.rebalance(hist));
  const double cut1 = d.bounds(0)[1];
  EXPECT_LT(cut1, 10.0);                           // moved toward the mass
  EXPECT_NEAR(cut1, 10.0 - 0.9 * halo, 1e-9);      // but clamped to the halo-bounded step
  ASSERT_TRUE(d.rebalance(hist));
  EXPECT_LT(d.bounds(0)[1], cut1);                 // repeated calls keep converging
  // a balanced histogram leaves an already-uniform layout untouched
  Decomposition u({20.0, 10.0, 10.0}, {true, true, false}, {2, 1, 1}, halo);
  std::array<std::vector<double>, 3> flat;
  flat[0].assign(8, 50.0);
  EXPECT_FALSE(u.rebalance(flat));
  EXPECT_EQ(u.bounds(0), (std::vector<double>{0.0, 10.0, 20.0}));
}

TEST(Decomposition, RebalanceKeepsSingleSlabAxesAndRespectsMinGap) {
  Decomposition d({20.0, 10.0, 10.0}, {true, true, false}, {2, 1, 1}, 1.3);
  std::array<std::vector<double>, 3> hist;
  hist[1].assign(8, 10.0);  // y has one slab: nothing to move
  EXPECT_FALSE(d.rebalance(hist));
  // driving the cut repeatedly toward zero must stop at the minimum slab
  // width, never produce an inverted or empty slab
  std::array<std::vector<double>, 3> skew;
  skew[0].assign(8, 0.0);
  skew[0][0] = 1.0;
  for (int it = 0; it < 64; ++it) d.rebalance(skew);
  const auto& b = d.bounds(0);
  EXPECT_GT(b[1], 0.0);
  EXPECT_GT(b[2] - b[1], 0.5 * std::min(1.3, 10.0) - 1e-12);
  EXPECT_GT(b[1] - b[0], 0.5 * std::min(1.3, 10.0) - 1e-12);
}

// -------------------------------------------------- the equivalence gate

dpd::DpdParams channel_params() {
  dpd::DpdParams p;
  p.box = {12.0, 6.0, 6.0};
  p.periodic = {true, true, false};
  return p;
}

// Replicated deterministic setup: every rank (and the single-rank
// reference) builds the identical population through the same code path.
std::shared_ptr<dpd::DpdSystem> make_channel_system() {
  const auto prm = channel_params();
  auto sys = std::make_shared<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys->fill(3.0, dpd::kSolvent, 42);
  sys->set_body_force([](const Vec3&, dpd::Species) { return Vec3{0.05, 0.0, 0.0}; });
  return sys;
}

std::uint64_t single_rank_digest(int steps) {
  auto sys = make_channel_system();
  for (int s = 0; s < steps; ++s) sys->step();
  return trajectory_digest(*sys);
}

std::uint64_t distributed_digest(int nranks, int steps, DistOptions opt = {},
                                 xmp::CheckOptions check = xmp::CheckOptions::from_env()) {
  std::uint64_t out = 0;
  xmp::run(
      nranks,
      [&](xmp::Comm& world) {
        auto sys = make_channel_system();
        DistributedDpd drv(world, *sys, opt);
        drv.distribute();
        for (int s = 0; s < steps; ++s) sys->step();
        const std::uint64_t d = drv.global_digest();
        if (world.rank() == 0) out = d;
      },
      nullptr, check);
  return out;
}

TEST(ExchangeEquivalence, TwoRankSymmetricRunIsBitwiseEqual) {
  EXPECT_EQ(distributed_digest(2, 40), single_rank_digest(40));
}

TEST(ExchangeEquivalence, FourRankSymmetricRunIsBitwiseEqual) {
  EXPECT_EQ(distributed_digest(4, 40), single_rank_digest(40));
}

TEST(ExchangeEquivalence, OverlappedTwoRankSymmetricRunIsBitwiseEqual) {
  // The overlapped pair pass (interior rows while the split-phase halo
  // flies, boundary rows after, staged canonical-order scatter replay) must
  // not change a single bit of the trajectory.
  DistOptions opt;
  opt.overlap = true;
  EXPECT_EQ(distributed_digest(2, 40, opt), single_rank_digest(40));
}

TEST(ExchangeEquivalence, OverlappedFourRankSymmetricRunIsBitwiseEqual) {
  DistOptions opt;
  opt.overlap = true;
  EXPECT_EQ(distributed_digest(4, 40, opt), single_rank_digest(40));
}

// The relayouts a decomposed run of make_channel_system must take, counted
// on the single-rank trajectory: the steps at which the largest
// displacement since the last counted relayout exceeds skin/2.
std::uint64_t single_rank_relayouts(int steps) {
  auto sys = make_channel_system();
  const double half_skin = 0.5 * sys->params().skin;
  dpd::SoA3 ref = sys->positions();
  std::uint64_t relayouts = 0;
  for (int s = 0; s < steps; ++s) {
    sys->step();
    double worst = 0.0;
    for (std::size_t i = 0; i < sys->size(); ++i)
      worst = std::max(worst, sys->min_image(ref[i], sys->positions()[i]).norm2());
    if (worst > half_skin * half_skin) {
      ++relayouts;
      ref = sys->positions();
    }
  }
  return relayouts;
}

TEST(ExchangeEquivalence, RebuildCadenceFollowsTheSingleRankTrajectory) {
  // A decomposed run relayouts exactly when one rank's Verlet list would
  // rebuild: at any rank count, with or without the overlapped halo.
  const int steps = 40;
  const std::uint64_t want = single_rank_relayouts(steps);
  EXPECT_GT(want, 1u);
  for (int nranks : {2, 4})
    for (bool overlap : {false, true}) {
      DistOptions opt;
      opt.overlap = overlap;
      std::uint64_t got = 0;
      xmp::run(nranks, [&](xmp::Comm& world) {
        auto sys = make_channel_system();
        DistributedDpd drv(world, *sys, opt);
        drv.distribute();
        for (int s = 0; s < steps; ++s) sys->step();
        if (world.rank() == 0) got = drv.rebuilds();
      });
      EXPECT_EQ(got, want) << nranks << " ranks, overlap " << overlap;
    }
}

TEST(ExchangeEquivalence, BothRefreshFlavoursRunCleanUnderCheckedMode) {
  // The blocking refresh completes its Pending handles right away, the
  // overlapped one from inside the pair pass. Checked mode must find no
  // leaked handle and no unreceived message in either, and both must stay
  // bitwise equal to the single-rank run.
  xmp::CheckOptions check;
  check.enabled = true;
  const std::uint64_t ref = single_rank_digest(40);
  for (bool overlap : {false, true}) {
    DistOptions opt;
    opt.overlap = overlap;
    std::uint64_t got = 0;
    EXPECT_NO_THROW(got = distributed_digest(2, 40, opt, check)) << "overlap=" << overlap;
    EXPECT_EQ(got, ref) << "overlap=" << overlap;
  }
}

TEST(ExchangeEquivalence, DigestAgreesOnEveryRank) {
  std::mutex mu;
  std::set<std::uint64_t> digests;
  xmp::run(2, [&](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    drv.distribute();
    for (int s = 0; s < 5; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    std::lock_guard<std::mutex> lk(mu);
    digests.insert(d);
  });
  EXPECT_EQ(digests.size(), 1u);
}

TEST(ExchangeEquivalence, RestartAcrossMidRunCheckpointIsBitwiseEqual) {
  const int pre = 20, post = 20;
  const std::uint64_t ref = single_rank_digest(pre + post);
  std::uint64_t out = 0;
  xmp::run(2, [&](xmp::Comm& world) {
    std::vector<std::uint8_t> blob;  // per-rank checkpoint
    {
      auto sys = make_channel_system();
      DistributedDpd drv(world, *sys);
      drv.distribute();
      for (int s = 0; s < pre; ++s) sys->step();
      resilience::BlobWriter w;
      sys->save_state(w);
      drv.save_state(w);
      blob = w.take();
    }
    // fresh process stand-in: rebuild the same configuration, then load
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    resilience::BlobReader r(blob);
    sys->load_state(r);
    drv.load_state(r);
    for (int s = 0; s < post; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    if (world.rank() == 0) out = d;
  });
  EXPECT_EQ(out, ref);
}

TEST(ExchangeEquivalence, OverlappedRestartAcrossMidRunCheckpointIsBitwiseEqual) {
  // Same gate with the overlapped halo path on both sides of the
  // checkpoint: no in-flight overlap state may leak into (or be needed
  // from) the blob — refresh() always begins and pair_forces always
  // finishes the split-phase update within one force evaluation.
  const int pre = 20, post = 20;
  const std::uint64_t ref = single_rank_digest(pre + post);
  std::uint64_t out = 0;
  xmp::run(2, [&](xmp::Comm& world) {
    DistOptions opt;
    opt.overlap = true;
    std::vector<std::uint8_t> blob;
    {
      auto sys = make_channel_system();
      DistributedDpd drv(world, *sys, opt);
      drv.distribute();
      for (int s = 0; s < pre; ++s) sys->step();
      resilience::BlobWriter w;
      sys->save_state(w);
      drv.save_state(w);
      blob = w.take();
    }
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys, opt);
    resilience::BlobReader r(blob);
    sys->load_state(r);
    drv.load_state(r);
    for (int s = 0; s < post; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    if (world.rank() == 0) out = d;
  });
  EXPECT_EQ(out, ref);
}

// Replicated deterministic setup with all particles crowded into x < 6 —
// the worst case for a uniform x-split (one rank owns everything).
std::shared_ptr<dpd::DpdSystem> make_skewed_system() {
  const auto prm = channel_params();
  auto sys = std::make_shared<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys->fill(3.0, dpd::kSolvent, 42);
  std::vector<std::size_t> drop;
  for (std::size_t i = 0; i < sys->size(); ++i)
    if (sys->positions()[i].x > 6.0) drop.push_back(i);
  sys->remove_particles(std::move(drop));
  sys->set_body_force([](const Vec3&, dpd::Species) { return Vec3{0.05, 0.0, 0.0}; });
  return sys;
}

TEST(ExchangeRebalance, SkewedRunMovesCutsAndStaysBitwiseEqual) {
  // Particle-count load balancing is trajectory-neutral: shifting the cut
  // planes forces a rebuild under a different ownership layout, but the
  // digest must still match the single-rank run bitwise — while the cuts
  // demonstrably moved off the uniform layout.
  const int steps = 30;
  std::uint64_t ref = 0;
  {
    auto sys = make_skewed_system();
    for (int s = 0; s < steps; ++s) sys->step();
    ref = trajectory_digest(*sys);
  }
  std::uint64_t out = 0;
  std::vector<double> cuts_after;
  xmp::run(2, [&](xmp::Comm& world) {
    auto sys = make_skewed_system();
    DistOptions opt;
    opt.dims = {2, 1, 1};
    opt.overlap = true;
    opt.rebalance_every = 5;
    DistributedDpd drv(world, *sys, opt);
    drv.distribute();
    for (int s = 0; s < steps; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    if (world.rank() == 0) {
      out = d;
      cuts_after = drv.decomposition().bounds(0);
    }
  });
  EXPECT_EQ(out, ref);
  ASSERT_EQ(cuts_after.size(), 3u);
  EXPECT_LT(cuts_after[1], 6.0 - 0.5)
      << "the empty-half skew should have pulled the x cut well below uniform";
}

TEST(ExchangeRebalance, RestartAfterRebalanceRestoresMovedCuts) {
  // A checkpoint taken *after* cuts moved must restore the moved layout:
  // restarting under uniform cuts would migrate the whole population on the
  // first refresh and can violate the neighbour-shell bound. The digest gate
  // doubles as the trajectory check.
  const int pre = 12, post = 12;
  std::uint64_t ref = 0;
  {
    auto sys = make_skewed_system();
    for (int s = 0; s < pre + post; ++s) sys->step();
    ref = trajectory_digest(*sys);
  }
  std::uint64_t out = 0;
  bool cuts_restored = false;
  xmp::run(2, [&](xmp::Comm& world) {
    DistOptions opt;
    opt.dims = {2, 1, 1};
    opt.overlap = true;
    opt.rebalance_every = 3;
    std::vector<std::uint8_t> blob;
    std::vector<double> cuts_at_save;
    {
      auto sys = make_skewed_system();
      DistributedDpd drv(world, *sys, opt);
      drv.distribute();
      for (int s = 0; s < pre; ++s) sys->step();
      cuts_at_save = drv.decomposition().bounds(0);
      resilience::BlobWriter w;
      sys->save_state(w);
      drv.save_state(w);
      blob = w.take();
    }
    auto sys = make_skewed_system();
    DistributedDpd drv(world, *sys, opt);
    resilience::BlobReader r(blob);
    sys->load_state(r);
    drv.load_state(r);
    const bool restored = drv.decomposition().bounds(0) == cuts_at_save &&
                          cuts_at_save != std::vector<double>{0.0, 6.0, 12.0};
    for (int s = 0; s < post; ++s) sys->step();
    const std::uint64_t d = drv.global_digest();
    if (world.rank() == 0) {
      out = d;
      cuts_restored = restored;
    }
  });
  EXPECT_EQ(out, ref);
  EXPECT_TRUE(cuts_restored) << "load_state must restore the post-rebalance cut planes";
}

TEST(ExchangeEquivalence, BlobWithRetiredModeByteFailsTyped) {
  // Driver checkpoints once carried a halo-mode byte between the process
  // grid and the halo width. Loading such a blob must end in a typed
  // snapshot error, never in misaligned fields read as a valid layout.
  xmp::run(1, [](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    const Decomposition& d = drv.decomposition();
    resilience::BlobWriter w;
    w.pod(static_cast<std::int32_t>(d.dims().px));
    w.pod(static_cast<std::int32_t>(d.dims().py));
    w.pod(static_cast<std::int32_t>(d.dims().pz));
    w.pod(std::uint8_t{0});  // the retired mode byte
    w.pod(d.halo_width());
    w.pod(std::uint8_t{1});
    for (int a = 0; a < 3; ++a) {
      w.pod(static_cast<std::uint64_t>(d.bounds(a).size()));
      for (double v : d.bounds(a)) w.pod(v);
    }
    const auto blob = w.take();
    resilience::BlobReader r(blob);
    EXPECT_THROW(drv.load_state(r), resilience::SnapshotError);
  });
}

// ----------------------------------------------- migration & diagnostics

TEST(ExchangeMigration, OwnershipMovesAndGlobalCountIsConserved) {
  telemetry::Registry::reset_all();
  telemetry::set_enabled(true);
  std::mutex mu;
  double migrated = 0.0, halo_particles = 0.0, halo_bytes = 0.0;
  std::int64_t count0 = 0, countN = 0;
  double temp = -1.0;
  xmp::run(2, [&](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    drv.distribute();
    const std::int64_t c0 = drv.global_count();
    for (int s = 0; s < 60; ++s) sys->step();
    const std::int64_t cn = drv.global_count();
    const double t = drv.kinetic_temperature();
    const auto counters = telemetry::Registry::local().counters();
    std::lock_guard<std::mutex> lk(mu);
    if (world.rank() == 0) {
      count0 = c0;
      countN = cn;
      temp = t;
    }
    auto get = [&](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? 0.0 : it->second.value;
    };
    migrated += get("dpd.migrate.count");
    halo_particles += get("dpd.halo.particles");
    halo_bytes += get("dpd.halo.bytes");
  });
  telemetry::set_enabled(false);
  EXPECT_GT(count0, 0);
  EXPECT_EQ(count0, countN);  // migration moves ownership, never particles
  EXPECT_GT(migrated, 0.0) << "60 body-forced steps should migrate someone";
  EXPECT_GT(halo_particles, 0.0);
  EXPECT_GT(halo_bytes, 0.0);
  EXPECT_GT(temp, 0.0);
}

TEST(ExchangeMigration, SkipPastTheNeighbourShellThrowsNamingGidAndRanks) {
  // Four x-slabs of width 3 on a 12-long periodic box: rank 0's neighbours
  // are 1 and 3. An owned particle moved two slabs, into rank 2's, cannot
  // migrate; the rebuild must say which particle went where, and the
  // failing rank must abort the others instead of leaving them blocked on
  // its migration message — with and without the checked runtime.
  for (bool checked : {false, true}) {
    xmp::CheckOptions check;
    check.enabled = checked;
    std::uint32_t gid = 0;
    std::string what;
    try {
      xmp::run(
          4,
          [&](xmp::Comm& world) {
            auto sys = make_channel_system();
            DistributedDpd drv(world, *sys, DistOptions{{4, 1, 1}});
            drv.distribute();
            sys->step();
            if (world.rank() == 0)
              for (std::size_t i = 0; i < sys->size(); ++i) {
                const double x = sys->positions()[i].x;
                if (sys->is_ghost(i) || x < 1.0 || x > 2.0) continue;
                gid = sys->gid_of(i);
                sys->positions()[i].x = x + 6.0;
                break;
              }
            sys->step();
          },
          nullptr, check);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("particle gid " + std::to_string(gid) + " migrated from rank 0"),
              std::string::npos)
        << "checked=" << checked << ": " << what;
    EXPECT_NE(what.find("past the neighbour shell to rank 2"), std::string::npos)
        << "checked=" << checked << ": " << what;
  }
}

// ------------------------------------------------------------ rank faults

/// Test-side exchange hook: forwards every call to the driver, but lets the
/// FaultPlan kill this rank in finish_refresh first — after begin_update
/// posted the halo receives, before they complete — so the dead rank still
/// holds its Pending receives.
class FaultingExchange final : public dpd::ExchangeHook {
public:
  FaultingExchange(DistributedDpd& drv, const resilience::FaultPlan& plan, int world_rank)
      : drv_(drv), plan_(plan), world_rank_(world_rank) {}

  void refresh(dpd::DpdSystem& sys) override { drv_.refresh(sys); }
  bool overlap_pending() const override { return drv_.overlap_pending(); }
  void finish_refresh(dpd::DpdSystem& sys) override {
    EXPECT_TRUE(drv_.overlap_pending());
    plan_.check(world_rank_, ++overlapped_);
    drv_.finish_refresh(sys);
  }

private:
  DistributedDpd& drv_;
  const resilience::FaultPlan& plan_;
  int world_rank_;
  /// Overlapped refreshes so far, this one included: the FaultPlan's step.
  /// Rebuild decisions are allreduced, so every rank counts alike.
  std::uint64_t overlapped_ = 0;
};

TEST(ExchangeFaults, RankDyingWithOverlappedHaloInFlightEndsTheRun) {
  // The victim dies with its halo receives posted; every other rank is in
  // or heading into the same exchange. xmp::run must end promptly and name
  // the injected fault as the root cause, not the AbortedError the woken
  // ranks throw, nor a checked-mode diagnosis.
  for (int nranks : {2, 4}) {
    const int victim = nranks - 1;
    const std::uint64_t kill_step = 3;  // the third overlapped refresh
    resilience::FaultPlan plan;
    plan.kill_rank(victim, kill_step);
    for (bool checked : {false, true}) {
      xmp::CheckOptions check;
      check.enabled = checked;
      bool faulted = false;
      std::string other;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        xmp::run(
            nranks,
            [&](xmp::Comm& world) {
              auto sys = make_channel_system();
              DistOptions opt;
              opt.overlap = true;
              DistributedDpd drv(world, *sys, opt);
              FaultingExchange hook(drv, plan, world.world_rank());
              sys->set_exchange(&hook);
              drv.distribute();
              for (int s = 0; s < 20; ++s) sys->step();
            },
            nullptr, check);
      } catch (const resilience::InjectedFault& e) {
        faulted = true;
        EXPECT_EQ(e.rank, victim);
        EXPECT_EQ(e.step, kill_step);
      } catch (const std::exception& e) {
        other = e.what();
      }
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      EXPECT_TRUE(faulted) << nranks << " ranks, checked=" << checked
                           << ": root cause was: " << (other.empty() ? "none" : other);
      EXPECT_LT(secs, 10.0) << nranks << " ranks, checked=" << checked;
    }
  }
}

// Five steps of the two-rank channel run with telemetry on: the bytes per
// CommMatrix tag class, and the overlap counters summed over the ranks.
struct ExchangeTraffic {
  std::uint64_t build_bytes = 0, update_bytes = 0;
  std::vector<std::string> unattributed;  // "tag:N" classes that carried traffic
  double rows_interior = 0.0, rows_boundary = 0.0;
  bool overlap_counted = false;
};

ExchangeTraffic run_exchange_traffic(bool overlap) {
  ExchangeTraffic out;
  telemetry::Registry::reset_all();
  telemetry::set_enabled(true);
  telemetry::CommMatrix matrix(dpd::exchange::comm_tag_classes());
  std::mutex mu;
  xmp::run(
      2,
      [&](xmp::Comm& world) {
        auto sys = make_channel_system();
        DistOptions opt;
        opt.overlap = overlap;
        DistributedDpd drv(world, *sys, opt);
        drv.distribute();
        for (int s = 0; s < 5; ++s) sys->step();
        const auto counters = telemetry::Registry::local().counters();
        auto get = [&](const char* name) {
          const auto it = counters.find(name);
          return it == counters.end() ? 0.0 : it->second.value;
        };
        std::lock_guard<std::mutex> lk(mu);
        out.rows_interior += get("dpd.rows.interior");
        out.rows_boundary += get("dpd.rows.boundary");
        out.overlap_counted = out.overlap_counted || counters.count("dpd.halo.overlap_us") > 0;
      },
      matrix.sink());
  telemetry::set_enabled(false);
  for (const auto& [key, cell] : matrix.cells()) {
    const std::string& cls = std::get<2>(key);
    if (cls.rfind("tag:", 0) == 0) out.unattributed.push_back(cls);
    if (cls == "dpd.halo.build") out.build_bytes += cell.bytes;
    if (cls == "dpd.halo.update") out.update_bytes += cell.bytes;
  }
  return out;
}

TEST(ExchangeTelemetry, CommMatrixAttributesExchangeTraffic) {
  // The blocking refresh attributes every exchange byte to a named class
  // and reports no overlap window or row split.
  const ExchangeTraffic t = run_exchange_traffic(false);
  EXPECT_GT(t.build_bytes, 0u);
  EXPECT_GT(t.update_bytes, 0u);
  EXPECT_TRUE(t.unattributed.empty()) << "unattributed traffic on " << t.unattributed.front();
  EXPECT_FALSE(t.overlap_counted);
  EXPECT_EQ(t.rows_interior + t.rows_boundary, 0.0);
}

TEST(ExchangeTelemetry, OverlapCountersAndAsyncTagClass) {
  // The overlapped path reports its comm/compute overlap window and the
  // interior/boundary row split. Its lanes ride the same dpd.halo.update
  // class as the blocking refresh, so no async traffic goes unattributed.
  const ExchangeTraffic t = run_exchange_traffic(true);
  EXPECT_GT(t.rows_interior, 0.0) << "the channel split leaves owned-only rows to overlap with";
  EXPECT_GT(t.rows_boundary, 0.0);
  EXPECT_TRUE(t.overlap_counted);
  EXPECT_GT(t.build_bytes, 0u);
  EXPECT_GT(t.update_bytes, 0u);
  EXPECT_TRUE(t.unattributed.empty()) << "unattributed traffic on " << t.unattributed.front();
}

TEST(ExchangeTelemetry, RebuildNestsMigrateHaloRelayout) {
  // Each rebuild opens dpd.exchange.rebuild under dpd.step/dpd.exchange,
  // and inside it exactly the migrate, halo and relayout phases, in that
  // order, once per rebuild.
  telemetry::Registry::reset_all();
  telemetry::set_enabled(true);
  std::mutex mu;
  std::vector<std::string> failures;
  std::uint64_t rebuilds = 0;
  xmp::run(2, [&](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    drv.distribute();
    for (int s = 0; s < 20; ++s) sys->step();
    const telemetry::PhaseNode root = telemetry::Registry::local().phases();
    std::string bad;
    const telemetry::PhaseNode* step = root.find("dpd.step");
    const telemetry::PhaseNode* exchange = step ? step->find("dpd.exchange") : nullptr;
    const telemetry::PhaseNode* rebuild =
        exchange ? exchange->find("dpd.exchange.rebuild") : nullptr;
    if (!rebuild) {
      bad = "no dpd.step/dpd.exchange/dpd.exchange.rebuild";
    } else {
      const std::vector<std::string> want = {"dpd.exchange.migrate", "dpd.exchange.halo",
                                             "dpd.exchange.relayout"};
      std::vector<std::string> got;
      for (const auto& c : rebuild->children) {
        got.push_back(c.name);
        if (c.count != rebuild->count) bad += c.name + " entered a different number of times; ";
      }
      if (got != want) bad += "children differ from migrate, halo, relayout; ";
      if (rebuild->count != drv.rebuilds()) bad += "rebuild count differs from rebuilds(); ";
    }
    std::lock_guard<std::mutex> lk(mu);
    if (!bad.empty()) failures.push_back("rank " + std::to_string(world.rank()) + ": " + bad);
    rebuilds += drv.rebuilds();
  });
  telemetry::set_enabled(false);
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_GT(rebuilds, 0u) << "20 body-forced steps should rebuild";
}

// --------------------------------------- force modules under decomposition

TEST(ExchangeModules, BondsAndPlateletsMatchSingleRankBitwise) {
  // Platelet adhesion (cutoff 1.5) reaches beyond the rc + skin pair halo
  // (1.2): the driver sizes its ghost shell from the modules' reach. Bonds
  // and platelet slot tables are replicated and gid-keyed; owner-decided
  // state transitions are re-synced after every step.
  const int steps = 25;
  auto build = [](dpd::DpdSystem& sys, dpd::BondSet& bonds, dpd::PlateletModel& model) {
    sys.fill(3.0, dpd::kSolvent, 7);
    dpd::RbcRingParams ring;
    ring.center = {6.0, 3.0, 3.0};  // spans the 2-rank x-split boundary
    ring.radius = 1.5;
    ring.beads = 12;
    dpd::make_rbc_ring(sys, bonds, ring);
    model.seed_platelets(sys, 12, 11);
  };
  auto platelet_params = [] {
    dpd::PlateletParams p;
    p.adhesive_region = [](const Vec3& r) { return r.x > 4.0 && r.x < 8.0; };
    return p;
  };

  // single-rank reference
  std::uint64_t ref_digest = 0;
  std::vector<int> ref_states;
  {
    const auto prm = channel_params();
    dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    auto bonds = std::make_shared<dpd::BondSet>();
    auto model = std::make_shared<dpd::PlateletModel>(platelet_params());
    build(sys, *bonds, *model);
    sys.add_module(bonds);
    sys.add_module(model);
    for (int s = 0; s < steps; ++s) {
      sys.step();
      model->update(sys);
    }
    ref_digest = trajectory_digest(sys);
    for (std::size_t k = 0; k < model->total(); ++k)
      ref_states.push_back(static_cast<int>(model->state_of(k)));
  }

  std::uint64_t dist_digest = 0;
  std::vector<int> dist_states;
  std::mutex mu;
  bool states_agree = true;
  xmp::run(2, [&](xmp::Comm& world) {
    const auto prm = channel_params();
    dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    auto bonds = std::make_shared<dpd::BondSet>();
    auto model = std::make_shared<dpd::PlateletModel>(platelet_params());
    build(sys, *bonds, *model);
    sys.add_module(bonds);
    sys.add_module(model);
    DistributedDpd drv(world, sys);
    drv.distribute();
    for (int s = 0; s < steps; ++s) {
      sys.step();
      model->update(sys);
      drv.sync_platelets(*model);
    }
    const std::uint64_t d = drv.global_digest();
    std::vector<int> states;
    for (std::size_t k = 0; k < model->total(); ++k)
      states.push_back(static_cast<int>(model->state_of(k)));
    std::lock_guard<std::mutex> lk(mu);
    if (world.rank() == 0) {
      dist_digest = d;
      dist_states = states;
    } else if (!dist_states.empty() && dist_states != states) {
      states_agree = false;
    }
  });
  EXPECT_EQ(dist_digest, ref_digest);
  EXPECT_EQ(dist_states, ref_states);
  EXPECT_TRUE(states_agree);
}

TEST(ExchangeModules, NarrowHaloWithWideBondFailsLoudly) {
  // A bond longer than the halo width must throw, not silently zero the
  // spring on the rank that cannot see the far endpoint.
  xmp::run(2, [](xmp::Comm& world) {
    const auto prm = channel_params();
    dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    // two bonded particles straddling the x-split, farther apart than
    // rc + skin; everything else far away
    sys.add_particle({4.0, 3.0, 3.0}, {}, dpd::kSolvent);
    sys.add_particle({8.0, 3.0, 3.0}, {}, dpd::kSolvent);
    auto bonds = std::make_shared<dpd::BondSet>();
    bonds->add_bond(0, 1, 4.0, 10.0);
    sys.add_module(bonds);
    DistributedDpd drv(world, sys, DistOptions{{2, 1, 1}});
    drv.distribute();
    EXPECT_THROW(sys.step(), std::runtime_error);
  });
}

TEST(ExchangeModules, HaloWidthFollowsTheModulesReach) {
  // The ghost shell is max(rc, every module's reach) + skin, fixed when the
  // driver is installed: a module added afterwards is refused.
  xmp::run(2, [](xmp::Comm& world) {
    const auto prm = channel_params();
    dpd::DpdSystem plain(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    plain.add_module(std::make_shared<dpd::BondSet>());
    DistributedDpd plain_drv(world, plain);
    EXPECT_EQ(plain_drv.decomposition().halo_width(), prm.rc + prm.skin);
    EXPECT_THROW(plain.add_module(std::make_shared<dpd::PlateletModel>(dpd::PlateletParams{})),
                 std::logic_error);

    dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    sys.add_module(std::make_shared<dpd::PlateletModel>(dpd::PlateletParams{}));
    DistributedDpd drv(world, sys);
    EXPECT_EQ(drv.decomposition().halo_width(), dpd::PlateletModel::kAdhesionCutoff + prm.skin);
  });
}

// --------------------------------------------- gid-keyed pair RNG pinning

TEST(GidPairRng, RemoveThenStepMatchesNeverInsertedReference) {
  // Removing particles then stepping must be bitwise identical to a run
  // whose population never contained them at all (same survivors, same
  // gids): remove_particles may leave no hidden state behind, and the
  // pair-RNG streams of surviving pairs must be untouched.
  const auto prm = channel_params();
  dpd::DpdSystem a(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  a.fill(3.0, dpd::kSolvent, 13);
  ASSERT_GT(a.size(), 100u);
  a.remove_particles({3, 17, 41, 80, 99});

  dpd::DpdSystem b(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  std::vector<dpd::ParticleRecord> survivors;
  for (std::size_t i = 0; i < a.size(); ++i) survivors.push_back(a.particle_record(i));
  b.reset_particles(survivors);
  b.set_next_gid(a.next_gid());

  for (int s = 0; s < 20; ++s) {
    a.step();
    b.step();
  }
  EXPECT_EQ(trajectory_digest(a), trajectory_digest(b));
}

TEST(GidPairRng, PairNoiseIsKeyedOnGidsNotLocalIndices) {
  // The same physical pair, carrying the same gids but sitting at
  // different *local* slots, must draw the same random pair force.
  dpd::DpdParams prm;
  prm.box = {10.0, 10.0, 10.0};
  prm.periodic = {true, true, true};

  // system A: two far-away dummies claim gids 0 and 1, the interacting
  // pair gets gids 2 and 3 at local slots 2 and 3
  dpd::DpdSystem a(prm, std::make_shared<dpd::NoWalls>());
  a.add_particle({1.0, 1.0, 1.0}, {}, dpd::kSolvent);
  a.add_particle({9.0, 9.0, 9.0}, {}, dpd::kSolvent);
  a.add_particle({5.0, 5.0, 5.0}, {0.1, 0.0, 0.0}, dpd::kSolvent);
  a.add_particle({5.5, 5.0, 5.0}, {-0.1, 0.0, 0.0}, dpd::kSolvent);

  // system B: only the interacting pair, rebuilt with the same gids 2 and 3
  // but at local slots 0 and 1
  dpd::DpdSystem b(prm, std::make_shared<dpd::NoWalls>());
  std::vector<dpd::ParticleRecord> recs = {a.particle_record(2), a.particle_record(3)};
  b.reset_particles(recs);
  b.set_next_gid(a.next_gid());

  for (int s = 0; s < 5; ++s) {
    a.step();
    b.step();
  }
  const dpd::Vec3 pa2 = a.positions()[2], pa3 = a.positions()[3];
  const dpd::Vec3 pb2 = b.positions()[0], pb3 = b.positions()[1];
  EXPECT_EQ(pa2.x, pb2.x);
  EXPECT_EQ(pa2.y, pb2.y);
  EXPECT_EQ(pa2.z, pb2.z);
  EXPECT_EQ(pa3.x, pb3.x);
  EXPECT_EQ(pa3.y, pb3.y);
  EXPECT_EQ(pa3.z, pb3.z);
}

// ------------------------------- the in-place rebuild vs the record oracle

namespace oracle = dpd::exchange::reference;

bool same_bits(const Vec3& a, const Vec3& b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Slots of `sys`, plus plans of `halo`, that differ from the oracle
/// layout: 0 when every lane, the ghost mask and both plans are bitwise
/// equal. Forces must be zeroed.
std::size_t layout_mismatches(const dpd::DpdSystem& sys, const dpd::exchange::HaloExchanger& halo,
                              const oracle::Layout& want) {
  if (sys.size() != want.particles.size()) return sys.size() + want.particles.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const dpd::ParticleRecord got = sys.particle_record(i);
    const dpd::ParticleRecord& w = want.particles[i];
    bad += !(got.gid == w.gid && got.species == w.species && got.frozen == w.frozen &&
             got.ghost == w.ghost && same_bits(got.pos, w.pos) && same_bits(got.vel, w.vel) &&
             same_bits(got.aux_vel, w.aux_vel) && same_bits(got.frc_old, w.frc_old) &&
             same_bits(sys.forces()[i], Vec3{}));
  }
  bad += halo.send_plan() != want.send;
  bad += halo.recv_plan() != want.recv;
  return bad;
}

/// Exchange hook between the engine and DistributedDpd. It snapshots the
/// owned records before every refresh; whenever a refresh rebuilt, it replays
/// the record oracle from the snapshot and counts what differs.
class OracleProbe final : public dpd::ExchangeHook {
public:
  OracleProbe(const xmp::Comm& comm, dpd::DpdSystem& sys, DistributedDpd& drv)
      : comm_(comm), sys_(sys), drv_(drv) {
    sys_.set_exchange(this);
  }
  ~OracleProbe() override { sys_.set_exchange(&drv_); }

  /// drv.distribute(), checked against the oracle's partition of the same
  /// replicated population.
  void distribute() {
    const auto everyone = oracle::owned_records(sys_);
    drv_.distribute();
    check(oracle::distribute(comm_, drv_.decomposition(), everyone));
  }

  void refresh(dpd::DpdSystem& sys) override {
    auto before = oracle::owned_records(sys);
    const std::uint64_t rebuilds = drv_.rebuilds();
    drv_.refresh(sys);
    if (drv_.rebuilds() != rebuilds)
      check(oracle::rebuild(comm_, drv_.decomposition(), std::move(before)));
  }
  bool overlap_pending() const override { return drv_.overlap_pending(); }
  void finish_refresh(dpd::DpdSystem& sys) override { drv_.finish_refresh(sys); }

  std::uint64_t checked = 0;   ///< layouts compared
  std::size_t mismatches = 0;  ///< summed layout_mismatches

private:
  void check(const oracle::Layout& want) {
    ++checked;
    mismatches += layout_mismatches(sys_, drv_.halo(), want);
  }

  xmp::Comm comm_;
  dpd::DpdSystem& sys_;
  DistributedDpd& drv_;
};

struct OracleTally {
  std::uint64_t checked = 0;
  std::size_t mismatches = 0;
  std::vector<double> cuts;  ///< rank 0's x cut planes at the end
};

/// A probed run: distribute the replicated system `make()` builds, then
/// step it; every layout is compared with the oracle on every rank.
template <class Make>
OracleTally probed_run(int nranks, const DistOptions& opt, int steps, Make make) {
  OracleTally tally;
  std::mutex mu;
  xmp::run(nranks, [&](xmp::Comm& world) {
    auto sys = make();
    DistributedDpd drv(world, *sys, opt);
    OracleProbe probe(world, *sys, drv);
    probe.distribute();
    for (int s = 0; s < steps; ++s) sys->step();
    std::lock_guard<std::mutex> lk(mu);
    tally.checked += probe.checked;
    tally.mismatches += probe.mismatches;
    if (world.rank() == 0) tally.cuts = drv.decomposition().bounds(0);
  });
  return tally;
}

TEST(ExchangeOracle, TwoAndFourRankRebuildsMatchTheRecordOracle) {
  for (int nranks : {2, 4})
    for (bool overlap : {false, true}) {
      DistOptions opt;
      opt.overlap = overlap;
      const OracleTally t = probed_run(nranks, opt, 40, make_channel_system);
      // distribute() plus several rebuilds on every rank
      EXPECT_GT(t.checked, 3u * static_cast<std::uint64_t>(nranks))
          << nranks << " ranks, overlap=" << overlap;
      EXPECT_EQ(t.mismatches, 0u) << nranks << " ranks, overlap=" << overlap;
    }
}

TEST(ExchangeOracle, RebalanceMatchesTheRecordOracle) {
  DistOptions opt;
  opt.dims = {2, 1, 1};
  opt.overlap = true;
  opt.rebalance_every = 5;
  const OracleTally t = probed_run(2, opt, 30, make_skewed_system);
  ASSERT_EQ(t.cuts.size(), 3u);
  EXPECT_LT(t.cuts[1], 6.0) << "the skew should have moved the x cut";
  EXPECT_GT(t.checked, 2u);
  EXPECT_EQ(t.mismatches, 0u);
}

TEST(ExchangeOracle, BondsAndPlateletsAtARaisedHaloMatchTheRecordOracle) {
  // Species, frozen flags (bound platelets) and the wider shell all ride
  // through the rebuild.
  OracleTally t;
  std::mutex mu;
  xmp::run(2, [&](xmp::Comm& world) {
    const auto prm = channel_params();
    dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    sys.fill(3.0, dpd::kSolvent, 7);
    auto bonds = std::make_shared<dpd::BondSet>();
    dpd::RbcRingParams ring;
    ring.center = {6.0, 3.0, 3.0};
    ring.radius = 1.5;
    ring.beads = 12;
    dpd::make_rbc_ring(sys, *bonds, ring);
    dpd::PlateletParams pp;
    pp.adhesive_region = [](const Vec3& r) { return r.x > 4.0 && r.x < 8.0; };
    auto model = std::make_shared<dpd::PlateletModel>(pp);
    model->seed_platelets(sys, 12, 11);
    sys.add_module(bonds);
    sys.add_module(model);
    DistributedDpd drv(world, sys);
    OracleProbe probe(world, sys, drv);
    probe.distribute();
    for (int s = 0; s < 25; ++s) {
      sys.step();
      model->update(sys);
      drv.sync_platelets(*model);
    }
    std::lock_guard<std::mutex> lk(mu);
    t.checked += probe.checked;
    t.mismatches += probe.mismatches;
  });
  EXPECT_GT(t.checked, 2u);
  EXPECT_EQ(t.mismatches, 0u);
}

TEST(ExchangeOracle, RestartRebuildMatchesTheRecordOracle) {
  // The forced rebuild after a load starts from a system whose integrator
  // scratch was never sized; it must still lay out what the oracle does.
  OracleTally before, after;
  std::mutex mu;
  xmp::run(2, [&](xmp::Comm& world) {
    DistOptions opt;
    opt.overlap = true;
    std::vector<std::uint8_t> blob;
    {
      auto sys = make_channel_system();
      DistributedDpd drv(world, *sys, opt);
      OracleProbe probe(world, *sys, drv);
      probe.distribute();
      for (int s = 0; s < 15; ++s) sys->step();
      resilience::BlobWriter w;
      sys->save_state(w);
      drv.save_state(w);
      blob = w.take();
      std::lock_guard<std::mutex> lk(mu);
      before.checked += probe.checked;
      before.mismatches += probe.mismatches;
    }
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys, opt);
    OracleProbe probe(world, *sys, drv);
    resilience::BlobReader r(blob);
    sys->load_state(r);
    drv.load_state(r);
    sys->step();
    const bool rebuilt_on_load = drv.rebuilds() == 1;
    for (int s = 0; s < 14; ++s) sys->step();
    std::lock_guard<std::mutex> lk(mu);
    after.checked += probe.checked;
    after.mismatches += probe.mismatches;
    EXPECT_TRUE(rebuilt_on_load) << "rank " << world.rank();
  });
  EXPECT_EQ(before.mismatches, 0u);
  EXPECT_GE(after.checked, 2u);
  EXPECT_EQ(after.mismatches, 0u);
}

TEST(DpdSystemMerge, SlotsFollowGidOrderAndRejectDuplicates) {
  // Kept slots and record runs interleave by gid; each input learns its
  // slot, and a gid present twice is rejected before any lane changes.
  dpd::DpdParams prm;
  prm.box = {10.0, 10.0, 10.0};
  prm.periodic = {true, true, true};
  dpd::DpdSystem src(prm, std::make_shared<dpd::NoWalls>());
  for (int k = 0; k < 6; ++k)
    src.add_particle({1.0 + k, 2.0, 3.0}, {0.1 * k, 0.0, 0.0}, dpd::kSolvent);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.reset_particles({src.particle_record(0), src.particle_record(2), src.particle_record(3),
                       src.particle_record(5)});
  const std::vector<dpd::ParticleRecord> a = {src.particle_record(1)};
  const std::vector<dpd::ParticleRecord> b = {src.particle_record(4)};
  const std::span<const dpd::ParticleRecord> runs[2] = {a, b};
  std::vector<std::uint32_t> slot;
  sys.merge_particles({0, 3}, runs, slot);  // keep gids 0 and 5
  EXPECT_EQ(sys.gids(), (std::vector<std::uint32_t>{0, 1, 4, 5}));
  EXPECT_EQ(slot, (std::vector<std::uint32_t>{0, 3, 1, 2}));
  EXPECT_EQ(sys.positions()[3].x, 6.0);
  EXPECT_EQ(sys.velocities()[2].x, src.velocities()[4].x);

  const std::vector<dpd::ParticleRecord> dup = {src.particle_record(5)};
  const std::span<const dpd::ParticleRecord> dup_run[1] = {dup};
  EXPECT_THROW(sys.merge_particles({3}, dup_run, slot), std::invalid_argument);
  EXPECT_EQ(sys.gids(), (std::vector<std::uint32_t>{0, 1, 4, 5}))
      << "a rejected merge changes nothing";
}

// ---------------------------------- hostile DistributedDpd checkpoints

/// The DistributedDpd checkpoint header: process grid, halo width,
/// distributed flag.
void put_layout_header(resilience::BlobWriter& w, const Decomposition& d) {
  w.pod(static_cast<std::int32_t>(d.dims().px));
  w.pod(static_cast<std::int32_t>(d.dims().py));
  w.pod(static_cast<std::int32_t>(d.dims().pz));
  w.pod(d.halo_width());
  w.pod(std::uint8_t{1});
}

/// The DistributedDpd checkpoint as save_state lays it out: the header, then per
/// axis a u64 count and the cut planes.
std::vector<std::uint8_t> layout_blob(const Decomposition& d,
                                      const std::array<std::vector<double>, 3>& planes) {
  resilience::BlobWriter w;
  put_layout_header(w, d);
  for (const auto& b : planes) {
    w.pod(static_cast<std::uint64_t>(b.size()));
    for (double v : b) w.pod(v);
  }
  return w.take();
}

TEST(ExchangeCheckpoint, BlobBytesAreUnchanged) {
  xmp::run(2, [](xmp::Comm& world) {
    auto sys = make_skewed_system();
    DistOptions opt;
    opt.dims = {2, 1, 1};
    opt.rebalance_every = 3;
    DistributedDpd drv(world, *sys, opt);
    drv.distribute();
    for (int s = 0; s < 6; ++s) sys->step();
    const Decomposition& d = drv.decomposition();
    resilience::BlobWriter w;
    drv.save_state(w);
    EXPECT_EQ(w.data(), layout_blob(d, {d.bounds(0), d.bounds(1), d.bounds(2)}));
    EXPECT_NE(d.bounds(0)[1], 6.0) << "the rebalanced cut should be in the blob";
  });
}

TEST(ExchangeCheckpoint, HugePlaneCountIsCorruptWithoutAllocating) {
  xmp::run(1, [](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    resilience::BlobWriter w;
    put_layout_header(w, drv.decomposition());
    w.pod(std::uint64_t{1} << 62);  // the first axis claims 2^62 planes, 2^65 bytes
    const auto blob = w.take();
    resilience::BlobReader r(blob);
    EXPECT_THROW(drv.load_state(r), resilience::CorruptError);
  });
}

TEST(ExchangeCheckpoint, DescendingOrNanPlanesAreCorrupt) {
  xmp::run(1, [](xmp::Comm& world) {
    auto sys = make_channel_system();
    DistributedDpd drv(world, *sys);
    const Decomposition& d = drv.decomposition();
    const double L = d.box().x;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const std::vector<double>& x :
         {std::vector<double>{L, 0.0}, std::vector<double>{0.0, nan},
          std::vector<double>{0.0, 0.5 * L, L}}) {
      const auto blob = layout_blob(d, {x, d.bounds(1), d.bounds(2)});
      resilience::BlobReader r(blob);
      EXPECT_THROW(drv.load_state(r), resilience::CorruptError) << x.size() << " planes";
    }
    const auto good = layout_blob(d, {d.bounds(0), d.bounds(1), d.bounds(2)});
    resilience::BlobReader r(good);
    EXPECT_NO_THROW(drv.load_state(r));
  });
}

}  // namespace
