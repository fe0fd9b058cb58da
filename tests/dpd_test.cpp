// Tests for the DPD engine: pair search, the pair pass against a per-pair
// reference, force symmetry/momentum conservation, thermostat equilibrium,
// Poiseuille flow against continuum theory, wall no-penetration,
// inflow/outflow bookkeeping, bonded RBC rings, and platelet aggregation
// dynamics.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/platelets.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "la/simd.hpp"
#include "rbc/bonds.hpp"
#include "telemetry/registry.hpp"
#include "viscometry.hpp"

namespace {

dpd::DpdParams periodic_box(double L = 8.0) {
  dpd::DpdParams p;
  p.box = {L, L, L};
  p.periodic = {true, true, true};
  return p;
}

TEST(Geometry, ChannelSdf) {
  dpd::ChannelZ ch(10.0);
  EXPECT_DOUBLE_EQ(ch.sdf({0, 0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(ch.sdf({0, 0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(ch.sdf({0, 0, -1.0}), -1.0);
  EXPECT_DOUBLE_EQ(ch.normal({0, 0, 1.0}).z, 1.0);
  EXPECT_DOUBLE_EQ(ch.normal({0, 0, 9.0}).z, -1.0);
}

TEST(Geometry, PipeSdf) {
  dpd::PipeX pipe(3.0, 5.0, 5.0);
  EXPECT_DOUBLE_EQ(pipe.sdf({0, 5, 5}), 3.0);
  EXPECT_DOUBLE_EQ(pipe.sdf({0, 8, 5}), 0.0);
  EXPECT_LT(pipe.sdf({0, 9, 5}), 0.0);
  const auto n = pipe.normal({0, 7, 5});
  EXPECT_NEAR(n.y, -1.0, 1e-9);
}

TEST(Geometry, CavitySdfUnion) {
  dpd::ChannelWithCavityZ g(4.0, 10.0, 14.0, 3.0);
  EXPECT_GT(g.sdf({5.0, 0.0, 2.0}), 0.0);    // channel interior
  EXPECT_GT(g.sdf({12.0, 0.0, 5.0}), 0.0);   // cavity interior
  EXPECT_LT(g.sdf({5.0, 0.0, 5.0}), 0.0);    // above channel, outside cavity
  EXPECT_LT(g.sdf({12.0, 0.0, 7.5}), 0.0);   // above cavity roof
}

TEST(Dpd, Wrap1dEqualsFmodFormBitwise) {
  // wrap_1d's shortcuts must return the bits of fmod(v, L), plus L when
  // negative: at the edges of each shortcut interval, their nextafter
  // neighbours, the non-finite values, and random values on [-3L, 4L).
  const auto fmod_form = [](double v, double L) {
    v = std::fmod(v, L);
    return v < 0.0 ? v + L : v;
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::mt19937 rng(5);
  std::size_t checked = 0;
  for (const double L : {1.0, 6.0, 10.0, 16.0, 0.1, 1.3, 1e-3}) {
    std::vector<double> vs = {0.0, -0.0, L, -L, 2.0 * L, -2.0 * L, 0.5 * L, -0.5 * L,
                              1.5 * L, inf, -inf, std::numeric_limits<double>::quiet_NaN()};
    for (std::size_t k = 0, n = vs.size(); k < n; ++k) {
      vs.push_back(std::nextafter(vs[k], inf));
      vs.push_back(std::nextafter(vs[k], -inf));
    }
    std::uniform_real_distribution<double> u(-3.0 * L, 4.0 * L);
    for (int k = 0; k < 20000; ++k) vs.push_back(u(rng));
    for (const double v : vs) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dpd::wrap_1d(v, L)),
                std::bit_cast<std::uint64_t>(fmod_form(v, L)))
          << "v = " << v << ", L = " << L;
      ++checked;
    }
  }
  EXPECT_GT(checked, 140000u);
}

TEST(Dpd, PairSearchMatchesBruteForce) {
  auto prm = periodic_box(6.0);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 5);
  std::set<std::pair<std::size_t, std::size_t>> cell_pairs;
  sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
    cell_pairs.insert({std::min(i, j), std::max(i, j)});
  });
  // brute force
  std::set<std::pair<std::size_t, std::size_t>> bf_pairs;
  const auto& pos = sys.positions();
  for (std::size_t i = 0; i < sys.size(); ++i)
    for (std::size_t j = i + 1; j < sys.size(); ++j)
      if (sys.min_image(pos[i], pos[j]).norm2() < 1.0) bf_pairs.insert({i, j});
  EXPECT_EQ(cell_pairs, bf_pairs);
}

TEST(Dpd, ForcesConserveMomentum) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 21);
  sys.compute_forces();
  dpd::Vec3 f{};
  for (const auto& fi : sys.forces()) f += fi;
  EXPECT_NEAR(f.x, 0.0, 1e-9);
  EXPECT_NEAR(f.y, 0.0, 1e-9);
  EXPECT_NEAR(f.z, 0.0, 1e-9);
}

TEST(Dpd, MomentumConservedOverTime) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 33);
  const dpd::Vec3 p0 = sys.total_momentum();
  for (int s = 0; s < 50; ++s) sys.step();
  const dpd::Vec3 p1 = sys.total_momentum();
  EXPECT_NEAR(p1.x - p0.x, 0.0, 1e-8);
  EXPECT_NEAR(p1.y - p0.y, 0.0, 1e-8);
  EXPECT_NEAR(p1.z - p0.z, 0.0, 1e-8);
}

TEST(Dpd, ThermostatHoldsTemperature) {
  auto prm = periodic_box();
  prm.kBT = 1.0;
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 17);
  // equilibrate, then average T over a window
  for (int s = 0; s < 200; ++s) sys.step();
  double T = 0.0;
  const int win = 200;
  for (int s = 0; s < win; ++s) {
    sys.step();
    T += sys.kinetic_temperature();
  }
  T /= win;
  // Groot-Warren report a few % offset at dt = 0.01-0.05
  EXPECT_NEAR(T, prm.kBT, 0.06);
}

TEST(Dpd, DeterministicPairNoise) {
  // same (step, i, j) must give the same variate; symmetric in i, j
  const double z1 = dpd::pair_gaussian_like(42, 3, 17);
  const double z2 = dpd::pair_gaussian_like(42, 17, 3);
  const double z3 = dpd::pair_gaussian_like(43, 3, 17);
  EXPECT_DOUBLE_EQ(z1, z2);
  EXPECT_NE(z1, z3);
  // zero mean, unit variance over many draws
  double m = 0.0, v = 0.0;
  const int n = 20000;
  for (int k = 0; k < n; ++k) {
    const double z = dpd::pair_gaussian_like(k, 1, 2);
    m += z;
    v += z * z;
  }
  m /= n;
  v = v / n - m * m;
  EXPECT_NEAR(m, 0.0, 0.02);
  EXPECT_NEAR(v, 1.0, 0.03);
}

TEST(Dpd, WallsKeepParticlesInside) {
  dpd::DpdParams prm;
  prm.box = {8.0, 8.0, 6.0};
  prm.periodic = {true, true, false};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  sys.fill(3.0, dpd::kSolvent, 9, 0.1);
  for (int s = 0; s < 200; ++s) sys.step();
  for (const auto& p : sys.positions()) {
    EXPECT_GE(p.z, 0.0);
    EXPECT_LE(p.z, 6.0);
  }
}

TEST(Dpd, PoiseuilleProfileParabolic) {
  // Body-force-driven flow between plates: steady profile is parabolic with
  // centerline speed g H^2 / (8 nu_kinematic). We check shape (parabola fit)
  // and symmetry rather than the absolute viscosity.
  dpd::DpdParams prm;
  prm.box = {10.0, 6.0, 8.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(8.0));
  sys.fill(3.0, dpd::kSolvent, 3, 0.1);
  const double g = 0.06;
  sys.set_body_force([g](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{g, 0, 0}; });

  for (int s = 0; s < 800; ++s) sys.step();  // develop the flow
  dpd::SamplerParams sp;
  sp.nx = 1;
  sp.ny = 1;
  sp.nz = 16;
  dpd::FieldSampler sampler(sys, sp);
  for (int s = 0; s < 1200; ++s) {
    sys.step();
    sampler.accumulate(sys);
  }
  auto prof = sampler.snapshot();
  // centerline > near-wall; symmetric within sampling noise
  const double center = 0.5 * (prof[7] + prof[8]);
  EXPECT_GT(center, 2.0 * prof[0]);
  EXPECT_GT(center, 0.1);
  EXPECT_NEAR(prof[3], prof[12], 0.25 * center);
  // parabola through (z0, u0) and center should predict quarter points
  const double H = 8.0;
  auto z_of = [H](int b) { return (b + 0.5) * H / 16.0; };
  auto parab = [&](double z) { return center * (1.0 - std::pow((z - H / 2) / (H / 2), 2)); };
  EXPECT_NEAR(prof[4], parab(z_of(4)), 0.25 * center);
  EXPECT_NEAR(prof[11], parab(z_of(11)), 0.25 * center);
}

TEST(Dpd, FrozenParticlesDoNotMove) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 13);
  const std::size_t i = sys.add_particle({4.0, 4.0, 4.0}, {}, dpd::kPlatelet);
  sys.frozen()[i] = 1;
  for (int s = 0; s < 50; ++s) sys.step();
  EXPECT_DOUBLE_EQ(sys.positions()[i].x, 4.0);
  EXPECT_DOUBLE_EQ(sys.positions()[i].y, 4.0);
  EXPECT_DOUBLE_EQ(sys.positions()[i].z, 4.0);
}

TEST(Dpd, RemoveParticlesRemapsModules) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  auto bonds = std::make_shared<dpd::BondSet>();
  sys.add_module(bonds);
  const auto a = sys.add_particle({1, 1, 1}, {}, dpd::kSolvent);
  const auto b = sys.add_particle({1.4, 1, 1}, {}, dpd::kSolvent);
  const auto c = sys.add_particle({2, 2, 2}, {}, dpd::kSolvent);
  bonds->add_bond(a, b, 0.4, 10.0);
  bonds->add_bond(b, c, 1.0, 10.0);
  sys.remove_particles({c});
  EXPECT_EQ(bonds->size(), 1u);  // bond to removed particle dropped
  EXPECT_EQ(sys.size(), 2u);
  sys.remove_particles({a});
  EXPECT_EQ(bonds->size(), 0u);
}

TEST(Dpd, RemoveParticlesKeepsSurvivorLanes) {
  // Removal is the relayout lane pass with no records: every survivor keeps
  // every lane, its force included (the next drift reads it), and the
  // modules drop the removed gids.
  dpd::DpdParams prm;
  prm.box = {10.0, 6.0, 6.0};
  prm.periodic = {true, true, false};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  sys.fill(3.0, dpd::kSolvent, 17, 0.1);
  auto bonds = std::make_shared<dpd::BondSet>();
  dpd::RbcRingParams ring;
  ring.center = {5.0, 3.0, 3.0};
  ring.radius = 1.5;
  ring.beads = 12;
  const auto beads = dpd::make_rbc_ring(sys, *bonds, ring);
  auto model = std::make_shared<dpd::PlateletModel>(dpd::PlateletParams{});
  model->seed_platelets(sys, 8, 5);
  sys.add_module(bonds);
  sys.add_module(model);
  sys.frozen()[11] = 1;
  sys.frozen()[sys.size() - 2] = 1;
  for (int s = 0; s < 5; ++s) {
    sys.step();
    model->update(sys);
  }

  // every 7th particle, two ring beads and a platelet
  std::vector<std::size_t> idx;
  for (std::size_t i = 3; i < sys.size(); i += 7) idx.push_back(i);
  idx.push_back(beads[1]);
  idx.push_back(beads[6]);
  idx.push_back(static_cast<std::size_t>(sys.local_of(model->particles()[2])));
  std::set<std::uint32_t> dead;
  for (std::size_t i : idx) dead.insert(sys.gid_of(i));
  std::map<std::uint32_t, std::pair<dpd::ParticleRecord, dpd::Vec3>> before;
  for (std::size_t i = 0; i < sys.size(); ++i)
    if (!dead.count(sys.gid_of(i)))
      before[sys.gid_of(i)] = {sys.particle_record(i), sys.forces()[i]};
  ASSERT_GT(before.size(), 100u);
  std::size_t platelets_left = 0;
  for (std::uint32_t g : model->particles()) platelets_left += !dead.count(g);

  // an index out of range throws before anything moves
  const std::size_t n = sys.size();
  EXPECT_THROW(sys.remove_particles({3, n}), std::out_of_range);
  ASSERT_EQ(sys.size(), n);
  sys.remove_particles(idx);
  ASSERT_EQ(sys.size(), before.size());
  auto same = [](const dpd::Vec3& a, const dpd::Vec3& b) {
    return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
           std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y) &&
           std::bit_cast<std::uint64_t>(a.z) == std::bit_cast<std::uint64_t>(b.z);
  };
  std::size_t i = 0;
  for (const auto& [gid, lanes] : before) {
    const auto& [r, f] = lanes;
    const dpd::ParticleRecord now = sys.particle_record(i);
    EXPECT_EQ(now.gid, gid) << "slot " << i;
    EXPECT_TRUE(same(now.pos, r.pos)) << "gid " << gid;
    EXPECT_TRUE(same(now.vel, r.vel)) << "gid " << gid;
    EXPECT_TRUE(same(sys.forces()[i], f)) << "gid " << gid;
    EXPECT_TRUE(same(now.frc_old, r.frc_old)) << "gid " << gid;
    EXPECT_EQ(now.species, r.species) << "gid " << gid;
    EXPECT_EQ(now.frozen, r.frozen) << "gid " << gid;
    EXPECT_EQ(now.ghost, r.ghost) << "gid " << gid;
    ++i;
  }
  for (const dpd::Bond& b : bonds->bonds()) {
    EXPECT_FALSE(dead.count(b.i)) << "bond to removed gid " << b.i;
    EXPECT_FALSE(dead.count(b.j)) << "bond to removed gid " << b.j;
  }
  EXPECT_LT(bonds->size(), 24u);
  EXPECT_EQ(model->total(), platelets_left);
  for (std::uint32_t g : model->particles()) EXPECT_FALSE(dead.count(g)) << "platelet " << g;
}

TEST(FlowBc, InsertsAndDeletes) {
  dpd::DpdParams prm;
  prm.box = {12.0, 5.0, 5.0};
  prm.periodic = {false, true, true};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 5);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  fp.target_velocity = [](const dpd::Vec3&) { return dpd::Vec3{1.5, 0, 0}; };
  dpd::FlowBc bc(fp);
  const std::size_t n0 = sys.size();
  for (int s = 0; s < 400; ++s) {
    sys.step();
    bc.apply(sys);
  }
  EXPECT_GT(bc.inserted_total(), 0u);
  EXPECT_GT(bc.deleted_total(), 0u);
  // density roughly maintained (within 25%)
  EXPECT_NEAR(static_cast<double>(sys.size()), static_cast<double>(n0), 0.25 * n0);
  // all particles inside the domain along x
  for (const auto& p : sys.positions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 12.0);
  }
  // mean velocity in the bulk should be dragged towards the inflow speed
  double um = 0.0;
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    if (sys.positions()[i].x < 4.0 || sys.positions()[i].x > 8.0) continue;
    um += sys.velocities()[i].x;
    ++cnt;
  }
  ASSERT_GT(cnt, 0u);
  EXPECT_GT(um / cnt, 0.5);
}

TEST(Bonds, HarmonicRestoringForce) {
  auto prm = periodic_box();
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  auto bonds = std::make_shared<dpd::BondSet>();
  sys.add_module(bonds);
  const auto a = sys.add_particle({1.0, 1, 1}, {}, dpd::kRbcBead);
  const auto b = sys.add_particle({2.0, 1, 1}, {}, dpd::kRbcBead);
  bonds->add_bond(a, b, 0.5, 10.0);  // stretched by 0.5
  sys.compute_forces();
  // a pulled towards +x, b towards -x, magnitude ~ k dr (plus DPD pair force)
  EXPECT_GT(sys.forces()[a].x, 0.0);
  EXPECT_LT(sys.forces()[b].x, 0.0);
  EXPECT_NEAR(sys.forces()[a].x + sys.forces()[b].x, 0.0, 1e-12);
}

TEST(Bonds, RbcRingHoldsTogetherInFlow) {
  dpd::DpdParams prm;
  prm.box = {12.0, 6.0, 8.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.005;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(8.0));
  sys.fill(3.0, dpd::kSolvent, 3, 0.1);
  auto bonds = std::make_shared<dpd::BondSet>();
  sys.add_module(bonds);
  dpd::RbcRingParams rp;
  rp.center = {6.0, 3.0, 4.0};
  rp.radius = 1.5;
  rp.beads = 16;
  auto beads = dpd::make_rbc_ring(sys, *bonds, rp);
  EXPECT_EQ(beads.size(), 16u);
  EXPECT_EQ(bonds->size(), 32u);  // neighbour + bending springs
  sys.set_body_force([](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{0.05, 0, 0}; });
  for (int s = 0; s < 500; ++s) sys.step();
  // ring integrity: no bond stretched beyond 80%
  EXPECT_LT(bonds->max_strain(sys), 0.8);
  // the cell was advected downstream (possibly wrapped)
  double cx = 0.0;
  for (auto i : beads) cx += sys.positions()[i].x;
  cx /= beads.size();
  EXPECT_NE(cx, 6.0);
}

TEST(Platelets, ActivationStateMachine) {
  dpd::DpdParams prm;
  prm.box = {8.0, 4.0, 6.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  dpd::PlateletParams pp;
  pp.adhesive_region = [](const dpd::Vec3& p) { return p.z < 3.0; };  // bottom wall
  pp.trigger_distance = 1.2;
  pp.activation_delay = 0.5;
  pp.bind_distance = 1.0;
  pp.bind_speed = 5.0;  // permissive so binding happens quickly in test
  auto model = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(model);
  // a platelet gently drifting toward the bottom wall
  model->add_platelet(sys.add_particle({4.0, 2.0, 1.0}, {0, 0, -0.5}, dpd::kPlatelet));
  ASSERT_EQ(model->count(dpd::PlateletState::Passive), 1u);
  for (int s = 0; s < 300; ++s) {
    sys.step();
    model->update(sys);
  }
  EXPECT_EQ(model->count(dpd::PlateletState::Bound), 1u);
}

TEST(Platelets, NoActivationAwayFromAdhesiveRegion) {
  dpd::DpdParams prm;
  prm.box = {8.0, 4.0, 6.0};
  prm.periodic = {true, true, false};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  dpd::PlateletParams pp;
  pp.adhesive_region = [](const dpd::Vec3&) { return false; };
  auto model = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(model);
  model->add_platelet(sys.add_particle({4.0, 2.0, 0.5}, {}, dpd::kPlatelet));
  for (int s = 0; s < 200; ++s) {
    sys.step();
    model->update(sys);
  }
  EXPECT_EQ(model->count(dpd::PlateletState::Passive), 1u);
}

TEST(Platelets, AggregateGrowsOnBoundSeed) {
  dpd::DpdParams prm;
  prm.box = {6.0, 6.0, 6.0};
  prm.periodic = {true, true, false};
  prm.dt = 0.01;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(6.0));
  dpd::PlateletParams pp;
  pp.adhesive_region = [](const dpd::Vec3& p) { return p.z < 2.0; };
  pp.activation_delay = 0.1;
  pp.bind_speed = 5.0;
  auto model = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(model);
  sys.fill(3.0, dpd::kSolvent, 31, 0.1);  // solvent provides realistic drag
  // bound seed at the wall + a nearby platelet drifting towards it
  const auto seed = sys.add_particle({3.0, 3.0, 0.7}, {}, dpd::kPlatelet);
  model->add_platelet(seed);
  model->add_platelet(sys.add_particle({3.0, 3.0, 1.3}, {0, 0, -0.3}, dpd::kPlatelet));
  for (int s = 0; s < 1500 && model->count(dpd::PlateletState::Bound) < 2; ++s) {
    sys.step();
    model->update(sys);
  }
  EXPECT_EQ(model->count(dpd::PlateletState::Bound), 2u);
}

TEST(Sampler, BinsAndCenters) {
  auto prm = periodic_box(8.0);
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.add_particle({1.0, 1.0, 1.0}, {2.0, 0, 0}, dpd::kSolvent);
  sys.add_particle({7.0, 7.0, 7.0}, {4.0, 0, 0}, dpd::kSolvent);
  dpd::SamplerParams sp;
  sp.nx = 2;
  sp.ny = 2;
  sp.nz = 2;
  dpd::FieldSampler sampler(sys, sp);
  sampler.accumulate(sys);
  auto snap = sampler.snapshot();
  EXPECT_DOUBLE_EQ(snap[0], 2.0);
  EXPECT_DOUBLE_EQ(snap[7], 4.0);
  EXPECT_DOUBLE_EQ(snap[1], 0.0);
  const auto c0 = sampler.bin_center(0);
  EXPECT_DOUBLE_EQ(c0.x, 2.0);
  // snapshot resets the window
  auto snap2 = sampler.snapshot();
  EXPECT_DOUBLE_EQ(snap2[0], 0.0);
}

}  // namespace

namespace {

TEST(Viscometry, PoiseuilleFitIsClean) {
  dpd::ViscometryParams p;
  auto r = dpd::measure_viscosity(p);
  EXPECT_GT(r.dynamic_viscosity, 0.0);
  EXPECT_GT(r.u_max, 0.0);
  // parabola fits the interior profile well and the thermostat held
  EXPECT_LT(r.fit_residual, 0.15);
  EXPECT_NEAR(r.measured_temperature, 1.0, 0.08);
  // Groot-Warren fluids at rho=3, a=25, gamma=4.5 have nu ~ O(0.3-1.5)
  EXPECT_GT(r.kinematic_viscosity, 0.1);
  EXPECT_LT(r.kinematic_viscosity, 5.0);
}

TEST(Viscometry, IndependentOfDrivingForce) {
  // mu is a fluid property: halving the body force should give (nearly)
  // the same fit
  dpd::ViscometryParams a, b;
  b.body_force = 0.5 * a.body_force;
  b.seed = 11;
  auto ra = dpd::measure_viscosity(a);
  auto rb = dpd::measure_viscosity(b);
  EXPECT_NEAR(rb.dynamic_viscosity / ra.dynamic_viscosity, 1.0, 0.2);
}

}  // namespace

namespace {

TEST(Bonds, RingStretchesUnderOpposingLoad) {
  // Optical-tweezers-style RBC validation (Fedosov et al.): pull the two
  // ends of a ring apart; the axial diameter grows, the transverse shrinks,
  // and stiffer rings deform less.
  auto stretch = [](double k_spring) {
    dpd::DpdParams prm;
    prm.box = {16.0, 8.0, 8.0};
    prm.periodic = {true, true, true};
    prm.dt = 0.005;
    dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
    auto bonds = std::make_shared<dpd::BondSet>();
    sys.add_module(bonds);
    dpd::RbcRingParams rp;
    rp.center = {8.0, 4.0, 4.0};
    rp.radius = 2.0;
    rp.beads = 16;
    rp.k_spring = k_spring;
    rp.k_bend = 0.25 * k_spring;
    auto beads = dpd::make_rbc_ring(sys, *bonds, rp);
    // constant pulling load on the two x-extreme beads, applied as a
    // per-step velocity impulse F dt (equivalent to a constant force)
    const std::size_t right = beads[0], left = beads[8];
    for (int s = 0; s < 1500; ++s) {
      sys.velocities()[right] += dpd::Vec3{6.0 * prm.dt, 0, 0};
      sys.velocities()[left] -= dpd::Vec3{6.0 * prm.dt, 0, 0};
      sys.step();
    }
    const double dx = sys.min_image(sys.positions()[left], sys.positions()[right]).norm();
    return dx;
  };
  const double soft = stretch(40.0);
  const double stiff = stretch(400.0);
  // both stretch beyond the rest diameter (4.0); the soft ring stretches more
  EXPECT_GT(soft, 4.2);
  EXPECT_GT(soft, stiff);
}

}  // namespace

namespace {

TEST(Dpd, TinyPeriodicBoxCountsPairsOnce) {
  // 2 cells per periodic dimension: a configuration where a naive
  // half-stencil cell list would double-count every cross-cell pair.
  dpd::DpdParams prm;
  prm.box = {2.5, 2.5, 2.5};
  prm.periodic = {true, true, true};
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 77);
  std::map<std::pair<std::size_t, std::size_t>, int> visits;
  sys.for_each_pair([&](std::size_t i, std::size_t j, const dpd::Vec3&, double) {
    visits[{std::min(i, j), std::max(i, j)}]++;
  });
  ASSERT_FALSE(visits.empty());
  for (const auto& [pair, count] : visits) EXPECT_EQ(count, 1);
  // and against brute force
  std::size_t bf = 0;
  const auto& pos = sys.positions();
  for (std::size_t i = 0; i < sys.size(); ++i)
    for (std::size_t j = i + 1; j < sys.size(); ++j)
      if (sys.min_image(pos[i], pos[j]).norm2() < 1.0) ++bf;
  EXPECT_EQ(visits.size(), bf);
  // momentum conservation must survive in the tiny box too
  const auto p0 = sys.total_momentum();
  for (int s = 0; s < 20; ++s) sys.step();
  const auto p1 = sys.total_momentum();
  EXPECT_NEAR(p1.x, p0.x, 1e-9);
}

/// Pair forces by the plain rule: walk the CSR rows in order, one kernel
/// lane per listed pair, skipping `r2 >= rc2 || r2 <= 1e-20`.
struct PairReference {
  std::vector<dpd::Vec3> f;
  double in_range = 0.0;  ///< pairs not skipped
};

PairReference per_pair_reference(const dpd::DpdSystem& sys) {
  const auto& prm = sys.params();
  const double rc2 = prm.rc * prm.rc, inv_rc = 1.0 / prm.rc;
  const double inv_sqrt_dt = 1.0 / std::sqrt(prm.dt);
  const double a = dpd::DpdSystem::kPairA, g = dpd::DpdSystem::kPairGamma;
  const double sig = std::sqrt(2.0 * g * prm.kBT);
  const auto& offs = sys.neighbor_list().offsets();
  const auto& nbr = sys.neighbor_list().neighbors();
  PairReference ref{std::vector<dpd::Vec3>(sys.size())};
  for (std::size_t i = 0; i < sys.size(); ++i)
    for (std::size_t k = offs[i]; k < offs[i + 1]; ++k) {
      const std::size_t j = nbr[k];
      const dpd::Vec3 d = sys.min_image(sys.positions()[i], sys.positions()[j]);
      const double r2 = d.x * d.x + d.y * d.y + d.z * d.z;
      if (r2 >= rc2 || r2 <= 1e-20) continue;
      const dpd::Vec3 dv = sys.velocities()[j] - sys.velocities()[i];
      const double zeta =
          dpd::pair_gaussian_like(sys.step_count(), sys.gid_of(i), sys.gid_of(j));
      dpd::Vec3 fj;
      la::simd::dpd_pair_forces(1, inv_rc, inv_sqrt_dt, &d.x, &d.y, &d.z, &r2, &dv.x, &dv.y,
                                &dv.z, &zeta, a, g, sig, &fj.x, &fj.y, &fj.z);
      ref.f[i] -= fj;
      ref.f[j] += fj;
      ref.in_range += 1.0;
    }
  return ref;
}

/// Bitwise equal, except that any NaN matches any NaN.
bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || std::bit_cast<std::uint64_t>(a) ==
                                                 std::bit_cast<std::uint64_t>(b);
}

TEST(Dpd, PairPassMatchesPerPairReference) {
  // Hand-placed pairs on every edge of the pair pass's keep test, in groups
  // far enough apart (> rc + skin) not to list each other. A pair at r = rc
  // gets w = 0 and so a zero force either way; the dpd.pairs.in_range
  // counter is what shows that it was dropped.
  dpd::DpdParams prm;
  prm.box = {8.0, 8.0, 8.0};
  prm.periodic = {true, false, false};
  prm.skin = 0.3;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  int v = 0;
  auto add = [&](double x, double y, double z, dpd::Species s) {
    ++v;
    return sys.add_particle({x, y, z}, {0.1 * v, -0.05 * v, 0.3 - 0.07 * v}, s);
  };
  const auto at_rc_a = add(1.0, 1.0, 1.0, dpd::kSolvent);  // dx = 1.0: r == rc, excluded
  const auto at_rc_b = add(2.0, 1.0, 1.0, dpd::kSolvent);
  const auto below_a = add(1.0, 3.0, 1.0, dpd::kSolvent);  // r just below rc
  const auto below_b = add(1.0, 3.0 + 0.99999, 1.0, dpd::kRbcBead);
  const auto same_a = add(1.0, 6.0, 1.0, dpd::kRbcBead);  // coincident: r2 = 0, excluded
  const auto same_b = add(1.0, 6.0, 1.0, dpd::kSolvent);
  const auto shell_a = add(4.0, 1.0, 4.0, dpd::kSolvent);  // rc < r < rc + skin, excluded
  add(4.0 + 1.1, 1.0, 4.0, dpd::kPlatelet);
  add(4.0, 1.0 + 1.25, 4.0, dpd::kRbcBead);
  const auto wrap_a = add(0.2, 6.5, 6.5, dpd::kPlatelet);  // across the periodic x wrap
  const auto wrap_b = add(7.6, 6.5, 6.5, dpd::kSolvent);
  for (int k = 0; k < 7; ++k)  // a mixed-species cluster: rows longer than one SIMD block
    add(4.0 + 0.21 * k, 5.0 + 0.13 * (k % 3), 1.5 + 0.11 * (k % 2),
        static_cast<dpd::Species>(k % dpd::kNumSpecies));

  auto expect_reference = [&] {
    telemetry::Registry::local().clear();
    sys.compute_forces();
    const auto ref = per_pair_reference(sys);
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const dpd::Vec3 f = sys.forces()[i];
      EXPECT_TRUE(same_bits(f.x, ref.f[i].x) && same_bits(f.y, ref.f[i].y) &&
                  same_bits(f.z, ref.f[i].z))
          << "particle " << i;
    }
    const auto counters = telemetry::Registry::local().counters();
    EXPECT_EQ(counters.at("dpd.pairs.in_range").value, ref.in_range);
  };
  expect_reference();
  // every excluded pair is listed, and contributes nothing
  EXPECT_EQ(sys.neighbor_list().pair_count(), 3u + 2u + 1u + 21u);
  for (auto i : {at_rc_a, at_rc_b, same_a, same_b, shell_a})
    EXPECT_EQ(sys.forces()[i].norm2(), 0.0) << "particle " << i;
  for (auto i : {below_a, below_b, wrap_a, wrap_b})
    EXPECT_GT(sys.forces()[i].norm2(), 0.0) << "particle " << i;

  // A NaN position passes the Verlet check (NaN > lim is false), so the
  // list is reused with the NaN particle's pairs still in it; the keep test
  // keeps them, as the skip test always did, and both partners go NaN.
  sys.positions().xs()[below_a] = std::nan("");
  expect_reference();
  EXPECT_EQ(sys.neighbor_list().rebuilds(), 1u);
  EXPECT_TRUE(std::isnan(sys.forces()[below_b].x));
  EXPECT_TRUE(std::isnan(sys.forces()[below_a].x));
  EXPECT_EQ(sys.forces()[at_rc_a].norm2(), 0.0);
}

TEST(Dpd, PairForcesIgnoreSpecies) {
  // One pair model: with no force module registered, relabelling every
  // particle's species leaves every force bit unchanged.
  dpd::DpdSystem sys(periodic_box(6.0), std::make_shared<dpd::NoWalls>());
  sys.fill(3.0, dpd::kSolvent, 5);
  sys.step();
  sys.compute_forces();
  const dpd::SoA3 before = sys.forces();
  for (std::size_t i = 0; i < sys.size(); ++i)
    sys.species()[i] = static_cast<dpd::Species>((i + 1) % dpd::kNumSpecies);
  sys.compute_forces();
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const dpd::Vec3 f = sys.forces()[i], g = before[i];
    EXPECT_TRUE(same_bits(f.x, g.x) && same_bits(f.y, g.y) && same_bits(f.z, g.z))
        << "particle " << i;
  }
}

}  // namespace
