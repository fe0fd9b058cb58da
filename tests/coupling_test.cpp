// Tests for the NektarG coupling core: unit scaling (Eq. 1), the MCI
// communicator hierarchy and 3-step interface exchange, geometric L4
// discovery, replica ensembles, multi-patch continuum coupling, and the
// continuum-DPD coupled driver.

#include <gtest/gtest.h>

#include <cmath>

#include "coupling/cdc.hpp"
#include "coupling/mci.hpp"
#include "coupling/scales.hpp"
#include "multipatch/multipatch.hpp"
#include "replica/replica.hpp"

namespace {

// ---------------- scales ----------------

TEST(Scales, Equation1RoundTrip) {
  coupling::ScaleMap s;
  s.L_ns = 1.0;    // 1 mm
  s.L_dpd = 0.005; // 5 um in mm
  s.nu_ns = 3.0;
  s.nu_dpd = 0.6;
  const double v = 2.7;
  EXPECT_NEAR(s.velocity_dpd_to_ns(s.velocity_ns_to_dpd(v)), v, 1e-12);
  // Eq. (1) literally
  EXPECT_DOUBLE_EQ(s.velocity_ns_to_dpd(v), v * (1.0 / 0.005) * (0.6 / 3.0));
}

TEST(Scales, ReynoldsConsistency) {
  coupling::ScaleMap s;
  s.L_ns = 0.5;   // 0.5 mm vessel in NS units (1 unit = 1 mm)
  s.L_dpd = 100;  // the same vessel in DPD units (1 unit = 5 um)
  s.nu_ns = 1.5;
  s.nu_dpd = 0.3;
  EXPECT_NEAR(s.reynolds_ns(3.0), s.reynolds_dpd(3.0), 1e-12);
}

TEST(Scales, TimeRatioMatchesDiffusiveScaling) {
  coupling::ScaleMap s;
  s.L_ns = 1.0;
  s.L_dpd = 0.1;
  s.nu_ns = 1.0;
  s.nu_dpd = 0.5;
  EXPECT_DOUBLE_EQ(s.time_ratio(), (0.1 * 0.1 / 0.5) / (1.0 / 1.0));
}

TEST(Scales, ValidateRejectsNonPositive) {
  coupling::ScaleMap s;
  s.nu_dpd = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Scales, TimeProgressionSchedule) {
  coupling::TimeProgression tp;
  tp.dt_ns = 1e-3;
  tp.dpd_per_ns = 20;
  tp.exchange_every_ns = 10;
  // the paper's numbers: tau = 10 dt_NS = 200 dt_DPD
  EXPECT_EQ(tp.dpd_steps_per_exchange(), 200);
  EXPECT_DOUBLE_EQ(tp.tau_ns(), 0.01);
}

// ---------------- MCI ----------------

TEST(Mci, HierarchyRanksAndSizes) {
  xmp::run(8, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    // 2 racks of 4; 4 tasks of 2 (tasks nest in racks)
    cfg.rack_of = {0, 0, 0, 0, 1, 1, 1, 1};
    cfg.task_of = {0, 0, 1, 1, 2, 2, 3, 3};
    auto mci = coupling::build_mci(world, cfg);
    EXPECT_EQ(mci.l2.size(), 4);
    EXPECT_EQ(mci.l3.size(), 2);
    EXPECT_EQ(mci.rack, world.rank() / 4);
    EXPECT_EQ(mci.task, world.rank() / 2);
  });
}

TEST(Mci, DeriveL4SelectsMembers) {
  xmp::run(4, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of = {0, 0, 0, 0};
    cfg.task_of = {0, 0, 0, 0};
    auto mci = coupling::build_mci(world, cfg);
    // only even l3 ranks touch the interface
    xmp::Comm l4 = coupling::derive_l4(mci.l3, mci.l3.rank() % 2 == 0);
    if (mci.l3.rank() % 2 == 0) {
      ASSERT_TRUE(l4.valid());
      EXPECT_EQ(l4.size(), 2);
    } else {
      EXPECT_FALSE(l4.valid());
    }
  });
}

TEST(Mci, InterfaceChannelThreeStepExchange) {
  // Two tasks of 3 ranks; interface of 6 samples; each task's L4 = all its
  // ranks; rank r of a task owns samples {r, r+3}. Task 0 sends values
  // 100+idx; task 1 sends 200+idx; both receive intact.
  xmp::run(6, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of = {0, 0, 0, 0, 0, 0};
    cfg.task_of = {0, 0, 0, 1, 1, 1};
    auto mci = coupling::build_mci(world, cfg);
    xmp::Comm l4 = coupling::derive_l4(mci.l3, true);
    // L4 roots: world rank 0 (task 0) and 3 (task 1)
    const int peer_root = mci.task == 0 ? 3 : 0;
    std::vector<std::size_t> my_samples = {static_cast<std::size_t>(l4.rank()),
                                           static_cast<std::size_t>(l4.rank() + 3)};
    coupling::InterfaceChannel ch(world, l4, peer_root, 6, my_samples, 42);

    const double base = mci.task == 0 ? 100.0 : 200.0;
    std::vector<double> vals;
    for (std::size_t s : my_samples) vals.push_back(base + static_cast<double>(s));
    ch.send(vals);
    auto got = ch.recv();
    const double peer_base = mci.task == 0 ? 200.0 : 100.0;
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], peer_base + static_cast<double>(my_samples[0]));
    EXPECT_DOUBLE_EQ(got[1], peer_base + static_cast<double>(my_samples[1]));
  });
}

TEST(Mci, InterfaceChannelMessageCountIsRootToRoot) {
  // The whole exchange must cross the World communicator exactly twice
  // (one payload per direction) regardless of L4 sizes: the 3-step pattern
  // keeps high-volume traffic inside the groups.
  // The sink sees the whole run; the tag filter keeps only the interface
  // payload, not the set-up's splits and gathers.
  std::mutex mu;
  std::vector<xmp::TraceEvent> events;
  xmp::run(
      6,
      [](xmp::Comm& world) {
        coupling::MciConfig cfg;
        cfg.rack_of = {0, 0, 0, 0, 0, 0};
        cfg.task_of = {0, 0, 0, 1, 1, 1};
        auto mci = coupling::build_mci(world, cfg);
        xmp::Comm l4 = coupling::derive_l4(mci.l3, true);
        const int peer_root = mci.task == 0 ? 3 : 0;
        std::vector<std::size_t> my_samples = {static_cast<std::size_t>(l4.rank()),
                                               static_cast<std::size_t>(l4.rank() + 3)};
        coupling::InterfaceChannel ch(world, l4, peer_root, 6, my_samples, 42);
        std::vector<double> vals(2, 1.0);
        ch.send(vals);
        ch.recv();
      },
      [&](const xmp::TraceEvent& e) {
        if (e.tag == 42) {
          std::lock_guard lk(mu);
          events.push_back(e);
        }
      });
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_TRUE((e.src_world == 0 && e.dst_world == 3) ||
                (e.src_world == 3 && e.dst_world == 0));
    EXPECT_EQ(e.bytes, 6 * sizeof(double));
  }
}

TEST(Mci, GeometricDiscoveryFindsOwners) {
  // 1 atomistic task (ranks 4,5) + 2 continuum tasks (0,1 and 2,3), each
  // continuum rank owning half of its task's x-range. Samples span [0, 4).
  xmp::run(6, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of = {0, 0, 0, 0, 0, 0};
    cfg.task_of = {0, 0, 1, 1, 2, 2};
    auto mci = coupling::build_mci(world, cfg);
    const int atomistic_task = 2;

    // 8 samples at x = 0.25, 0.75, ..., 3.75 (y = z = 0)
    std::vector<double> samples;
    if (mci.task == atomistic_task && mci.l3.rank() == 0)
      for (int k = 0; k < 8; ++k) samples.insert(samples.end(), {0.25 + 0.5 * k, 0.0, 0.0});

    // continuum task t owns x in [2t, 2t+2); within a task, rank r owns
    // [2t + r, 2t + r + 1)
    auto owns = [&](double x, double, double) {
      const double lo = 2.0 * mci.task + mci.l3.rank();
      return x >= lo && x < lo + 1.0;
    };
    auto res = coupling::discover_interface_owners(mci, atomistic_task, samples, owns);

    if (mci.task != atomistic_task) {
      // each continuum rank claims exactly 2 samples
      EXPECT_EQ(res.my_claims.size(), 2u);
      for (std::size_t idx : res.my_claims) {
        const double x = 0.25 + 0.5 * static_cast<double>(idx);
        const double lo = 2.0 * mci.task + mci.l3.rank();
        EXPECT_GE(x, lo);
        EXPECT_LT(x, lo + 1.0);
      }
    } else if (mci.l3.rank() == 0) {
      ASSERT_EQ(res.task_claims.size(), 2u);
      EXPECT_EQ(res.task_claims[0].first, 0);
      EXPECT_EQ(res.task_claims[1].first, 1);
      EXPECT_EQ(res.task_claims[0].second.size(), 4u);
      EXPECT_EQ(res.task_claims[1].second.size(), 4u);
    }
  });
}

// ---------------- replicas ----------------

TEST(Replica, SplitSizesAndIds) {
  xmp::run(7, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);  // 7 ranks -> groups of 3,2,2
    EXPECT_GE(ens.replica_id(), 0);
    EXPECT_LT(ens.replica_id(), 3);
    const int sz = ens.replica_comm().size();
    EXPECT_TRUE(sz == 2 || sz == 3);
    // exactly one ensemble root
    const double roots = world.allreduce(ens.is_ensemble_root() ? 1.0 : 0.0, xmp::Op::Sum);
    EXPECT_DOUBLE_EQ(roots, 1.0);
  });
}

TEST(Replica, DistributeReachesEveryRank) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);
    std::vector<double> data;
    if (ens.is_ensemble_root()) data = {3.14, 1.59};
    auto got = ens.distribute(std::move(data));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], 3.14);
  });
}

TEST(Replica, GatherAverageAveragesReplicas) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);
    // replica j's root contributes the constant j
    std::vector<double> mine(4, static_cast<double>(ens.replica_id()));
    auto avg = ens.gather_average(mine);
    ASSERT_EQ(avg.size(), 4u);
    for (double v : avg) EXPECT_DOUBLE_EQ(v, 1.0);  // (0+1+2)/3
  });
}

// ---------------- multi-patch continuum coupling ----------------

TEST(MultiPatch, PoiseuilleAcrossThreePatches) {
  coupling::MultiPatchParams mp;
  mp.L = 6.0;
  mp.H = 1.0;
  mp.nx = 12;
  mp.ny = 2;
  mp.order = 5;
  mp.patches = 3;
  mp.overlap = 1;
  mp.ns.nu = 0.05;
  mp.ns.dt = 2e-3;
  const double Umax = 1.0;
  coupling::MultiPatchChannel chan(
      mp, [Umax](double y, double) { return 4.0 * Umax * y * (1.0 - y); });
  for (int s = 0; s < 500; ++s) chan.step();
  // the parabolic profile survives through all three patches
  for (double x : {1.0, 3.0, 5.0}) {
    const auto [u, v] = chan.velocity_at({x, 0.5});
    EXPECT_NEAR(u, Umax, 0.05) << "x=" << x;
    EXPECT_NEAR(v, 0.0, 0.03);
  }
  // velocity is continuous across the artificial interfaces (Fig. 9)
  EXPECT_LT(chan.interface_jump(), 0.02 * Umax);
}

TEST(MultiPatch, SinglePatchDegeneratesToPlainSolver) {
  coupling::MultiPatchParams mp;
  mp.L = 2.0;
  mp.nx = 4;
  mp.ny = 2;
  mp.order = 4;
  mp.patches = 1;
  mp.ns.dt = 1e-3;
  coupling::MultiPatchChannel chan(mp, [](double y, double) { return y * (1.0 - y); });
  chan.step();
  EXPECT_EQ(chan.num_patches(), 1);
  EXPECT_DOUBLE_EQ(chan.interface_jump(), 0.0);
}

TEST(MultiPatch, RejectsOversizedOverlap) {
  coupling::MultiPatchParams mp;
  mp.nx = 8;
  mp.patches = 4;
  mp.overlap = 3;
  EXPECT_THROW(coupling::MultiPatchChannel(mp, [](double, double) { return 0.0; }),
               std::invalid_argument);
}

// ---------------- continuum-DPD coupling ----------------

TEST(Cdc, ScheduleCountsAndScaledVelocity) {
  // Continuum: steady Poiseuille channel. DPD box embedded mid-channel.
  auto m = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Discretization>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Discretization> ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 200; ++s) ns.step();  // develop the flow

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 13, 0.1);

  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  dpd::FlowBc bc(fp);

  coupling::EmbeddedRegion region{1.5, 2.5, 0.0, 1.0};
  coupling::ScaleMap scales;
  scales.L_ns = 1.0;    // channel height in NS units
  scales.L_dpd = 10.0;  // the same height in DPD units (box height)
  scales.nu_ns = 0.05;
  scales.nu_dpd = 0.25;  // v_dpd = v_ns * (1/10) * 5 = 0.5 v_ns
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 5;

  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, region, scales, tp);

  // centerline: u_ns ~ 1 -> imposed DPD speed ~ 50... scale check first:
  const auto v_mid = cdc.continuum_velocity_at({8.0, 3.0, 5.0});
  const double u_ns_mid = sem::evaluate(d, {2.0, 0.5}, ns.u());
  EXPECT_NEAR(v_mid.x, scales.velocity_ns_to_dpd(u_ns_mid), 1e-9);

  std::size_t dpd_steps = 0;
  cdc.advance_interval([&] { ++dpd_steps; });
  EXPECT_EQ(dpd_steps, 10u);  // 2 NS steps x 5 DPD steps
  EXPECT_EQ(cdc.exchanges(), 1u);
}

TEST(Cdc, DpdFlowTracksContinuum) {
  // With a modest imposed velocity the DPD bulk flow should approach the
  // continuum field after several coupling intervals (Fig. 9 behaviour).
  auto m = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Discretization>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Discretization> ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 200; ++s) ns.step();

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 13, 0.1);

  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);

  coupling::EmbeddedRegion region{1.5, 2.5, 0.0, 1.0};
  coupling::ScaleMap scales;
  scales.L_ns = 1.0;
  scales.L_dpd = 10.0;
  scales.nu_ns = 0.05;
  scales.nu_dpd = 2.5;  // v_dpd = v_ns * (1/10) * 50 = 5 v_ns -> max ~ 5
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 10;
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, region, scales, tp);

  dpd::SamplerParams sp;
  sp.nx = 4;
  sp.ny = 1;
  sp.nz = 5;
  dpd::FieldSampler sampler(sys, sp);
  for (int interval = 0; interval < 25; ++interval)
    cdc.advance_interval([&] {
      if (interval >= 15) sampler.accumulate(sys);
    });
  const double mism = cdc.interface_mismatch(sampler);
  // imposed centerline speed is ~5 in DPD units; mean mismatch across bins
  // should be well under that
  EXPECT_LT(mism, 1.0);
}

}  // namespace

namespace {

TEST(MultiPatch, InterfaceThroughAneurysmCavity) {
  // The paper's patch decomposition cuts patient-specific geometry wherever
  // the load balance wants; here a 2-patch split slices straight through
  // the aneurysm cavity and the coupled solution must stay continuous
  // across the interface, inside the sac included.
  coupling::MultiPatchParams mp;
  mp.L = 8.0;
  mp.H = 1.0;
  mp.nx = 16;
  mp.ny = 2;
  mp.order = 4;
  mp.patches = 2;
  mp.overlap = 1;
  mp.with_cavity = true;
  mp.cav_x0 = 3.0;
  mp.cav_x1 = 5.0;
  mp.cav_depth = 1.0;
  mp.ns.nu = 0.02;
  mp.ns.dt = 2e-3;
  coupling::MultiPatchChannel chan(
      mp, [](double y, double) { return 4.0 * y * (1.0 - y); });

  for (int s = 0; s < 400; ++s) chan.step();

  // channel interface continuity
  EXPECT_LT(chan.interface_jump(), 0.03);

  // continuity inside the cavity: compare the two patches at the interface
  // midline at cavity heights
  const double xm = 0.5 * (chan.patch_extent(1).first + chan.patch_extent(0).second);
  for (double y : {1.2, 1.5, 1.8}) {
    const double u0 = sem::evaluate(chan.disc(0), {xm, y}, chan.patch(0).u());
    const double u1 = sem::evaluate(chan.disc(1), {xm, y}, chan.patch(1).u());
    EXPECT_NEAR(u0, u1, 0.03) << "y=" << y;
  }
  // the sac flow is slow compared to the channel (clotting condition)
  EXPECT_LT(std::fabs(chan.velocity_at({4.0, 1.6})[0]), 0.5 * chan.velocity_at({4.0, 0.5})[0]);
}

TEST(MultiPatch, FourPatchesAsInPaper) {
  // the paper's CoW domain is subdivided into four patches (Sec. 3)
  coupling::MultiPatchParams mp;
  mp.L = 8.0;
  mp.H = 1.0;
  mp.nx = 16;
  mp.ny = 2;
  mp.order = 4;
  mp.patches = 4;
  mp.overlap = 1;
  mp.ns.nu = 0.05;
  mp.ns.dt = 2e-3;
  coupling::MultiPatchChannel chan(
      mp, [](double y, double t) {
        return 4.0 * y * (1.0 - y) * (1.0 + 0.3 * std::sin(2.0 * M_PI * t / 0.5));
      });
  for (int s = 0; s < 400; ++s) chan.step();
  EXPECT_EQ(chan.num_patches(), 4);
  EXPECT_LT(chan.interface_jump(), 0.05);
  // flux is transported through all four patches
  EXPECT_GT(chan.velocity_at({7.5, 0.5})[0], 0.5);
}

}  // namespace

namespace {

TEST(Cdc3d, FullyThreeDimensionalCoupling) {
  // 3D continuum channel (plates at z = 0, 1) with an embedded DPD box:
  // the paper's actual configuration, no dimension folding.
  const double H = 1.0, Umax = 1.0, nu = 0.05;
  sem::Discretization3D d(4.0, 1.0, H, 4, 1, 2, 4);
  sem::NavierStokes<sem::Discretization3D>::Params prm;
  prm.nu = nu;
  prm.dt = 2e-3;
  prm.pressure_dirichlet_faces = {sem::HexFace::X1};
  sem::NavierStokes<sem::Discretization3D> ns(d, prm);
  auto prof = [&](double, double, double z, double) {
    return 4.0 * Umax * z * (H - z) / (H * H);
  };
  auto zero = [](double, double, double, double) { return 0.0; };
  ns.set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y1, prof, zero, zero);
  ns.set_natural_bc(sem::HexFace::X1);
  for (int s = 0; s < 250; ++s) ns.step();

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 13, 0.1);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);

  coupling::ScaleMap scales;
  scales.L_ns = 1.0;   // channel height in NS units
  scales.L_dpd = 10.0; // the same height in DPD units
  scales.nu_ns = nu;
  scales.nu_dpd = 2.5;  // v_dpd = 5 v_ns
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 10;
  coupling::EmbeddedBox box{1.5, 2.5, 0.25, 0.75, 0.0, 1.0};
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, box, scales, tp);

  // scale check against the 3D field
  const auto vmid = cdc.continuum_velocity_at({8.0, 3.0, 5.0});
  EXPECT_NEAR(vmid.x, scales.velocity_ns_to_dpd(sem::evaluate(d, {2.0, 0.5, 0.5}, ns.u())),
              1e-9);
  EXPECT_NEAR(vmid.z, 0.0, 0.5);

  dpd::SamplerParams sp;
  sp.nx = 4;
  sp.ny = 1;
  sp.nz = 5;
  dpd::FieldSampler sampler(sys, sp);
  for (int interval = 0; interval < 20; ++interval)
    cdc.advance_interval([&] {
      if (interval >= 12) sampler.accumulate(sys);
    });
  EXPECT_EQ(cdc.exchanges(), 20u);
  const double mism = cdc.interface_mismatch(sampler);
  EXPECT_LT(mism, 1.2);  // DPD bulk tracks the imposed 3D field
}

// ---------------- negative paths ----------------

TEST(MultiPatch, RejectsNonPositivePatchCount) {
  coupling::MultiPatchParams mp;
  mp.patches = 0;
  EXPECT_THROW(coupling::MultiPatchChannel(mp, [](double, double) { return 0.0; }),
               std::invalid_argument);
}

TEST(Cdc, RejectsDegenerateRegion) {
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 3);
  sem::NavierStokes<sem::Discretization>::Params nsp;
  sem::NavierStokes<sem::Discretization> ns(d, nsp);
  dpd::DpdParams dp;
  dpd::DpdSystem sys(dp, nullptr);
  dpd::FlowBcParams fp;
  dpd::FlowBc bc(fp);
  coupling::ScaleMap scales;
  coupling::TimeProgression tp;
  coupling::EmbeddedRegion flat_x{1.0, 1.0, 0.0, 1.0};   // x1 == x0
  coupling::EmbeddedRegion inverted_y{0.0, 1.0, 1.0, 0.5};  // y1 < y0
  EXPECT_THROW(coupling::BasicContinuumDpdCoupler(ns, sys, bc, flat_x, scales, tp),
               std::invalid_argument);
  EXPECT_THROW(coupling::BasicContinuumDpdCoupler(ns, sys, bc, inverted_y, scales, tp),
               std::invalid_argument);
}

TEST(Cdc3d, RejectsDegenerateBoxOnEveryAxis) {
  sem::Discretization3D d(4.0, 1.0, 1.0, 4, 1, 2, 2);
  sem::NavierStokes<sem::Discretization3D> ns(d, {});
  dpd::DpdParams dp;
  dpd::DpdSystem sys(dp, nullptr);
  dpd::FlowBcParams fp;
  dpd::FlowBc bc(fp);
  coupling::ScaleMap scales;
  coupling::TimeProgression tp;
  const double nan = std::nan("");
  const std::pair<coupling::EmbeddedBox, const char*> degenerate[] = {
      {{1.0, 1.0, 0.0, 1.0, 0.0, 1.0}, "axis x"},  // x1 == x0
      {{0.0, 1.0, 1.0, 0.5, 0.0, 1.0}, "axis y"},  // y1 < y0
      {{0.0, 1.0, 0.0, 1.0, nan, 1.0}, "axis z"},  // NaN bound
  };
  for (const auto& [box, axis] : degenerate) {
    try {
      coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, box, scales, tp);
      ADD_FAILURE() << "accepted a box degenerate on " << axis;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(axis), std::string::npos) << e.what();
    }
  }
}

TEST(Replica, DistributeVsGatherMismatchCaughtByCheckedMode) {
  xmp::CheckOptions opts;
  opts.enabled = true;
  try {
    xmp::run(
        2,
        [](xmp::Comm& world) {
          coupling::ReplicaEnsemble ens(world, 2);  // one rank per replica, both roots
          std::vector<double> v(4, 1.0);
          // Protocol error: the master replica fans data out while the other
          // replica tries to collect an average — the roots communicator sees
          // a bcast on one rank and a gatherv on the other.
          if (ens.replica_id() == 0)
            (void)ens.distribute(std::move(v));
          else
            (void)ens.gather_average(v);
        },
        nullptr, opts);
    FAIL() << "expected xmp::CheckError";
  } catch (const xmp::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offender"), std::string::npos) << msg;
  }
}

}  // namespace
