// Tests for the resilience subsystem: the blob codec and framed snapshot
// files (CRC32, atomic writes), the collective CheckpointCoordinator,
// deterministic fault injection, bitwise save->load->continue equivalence
// for every Checkpointable solver, and replica failover (paper Sec. 3.3:
// losing a slave replica must be invisible to the continuum side, losing the
// master must promote a survivor).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "coupling/cdc.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/platelets.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "mesh/quadmesh.hpp"
#include "nektar1d/network.hpp"
#include "rbc/bonds.hpp"
#include "replica/replica.hpp"
#include "resilience/blob.hpp"
#include "resilience/blob_la.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "resilience/snapshot.hpp"
#include "sem/navier_stokes.hpp"
#include "telemetry/comm_matrix.hpp"
#include "wpod/wpod.hpp"
#include "xmp/comm.hpp"

namespace {

std::string test_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/nektarg-resilience-" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Serialize any save_state-bearing object to bytes (bitwise state fingerprint).
template <class T>
std::vector<std::uint8_t> state_of(const T& obj) {
  resilience::BlobWriter w;
  obj.save_state(w);
  return w.take();
}

// ---------------- blob codec ----------------

TEST(Blob, PodVectorStringRoundTrip) {
  resilience::BlobWriter w;
  w.pod(std::uint64_t{42});
  w.pod(-1.5);
  w.vec(std::vector<double>{1.0, 2.0, 3.0});
  w.str("hello");
  w.vec(std::vector<int>{});

  resilience::BlobReader r(w.data());
  EXPECT_EQ(r.pod<std::uint64_t>(), 42u);
  EXPECT_DOUBLE_EQ(r.pod<double>(), -1.5);
  EXPECT_EQ(r.vec<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.vec<int>().empty());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Blob, TruncatedReadThrows) {
  resilience::BlobWriter w;
  w.pod(std::uint32_t{7});
  resilience::BlobReader r(w.data());
  EXPECT_THROW(r.pod<std::uint64_t>(), resilience::CorruptError);
}

TEST(Blob, CorruptArrayCountDoesNotAllocate) {
  // a bogus 10^18 element count must throw before the allocation, not OOM
  resilience::BlobWriter w;
  w.pod(std::uint64_t{1000000000000000000ull});
  resilience::BlobReader r(w.data());
  EXPECT_THROW(r.vec<double>(), resilience::CorruptError);
}

TEST(Blob, TrailingBytesDetected) {
  resilience::BlobWriter w;
  w.pod(std::uint32_t{1});
  resilience::BlobReader r(w.data());
  EXPECT_THROW(r.expect_end(), resilience::CorruptError);
}

TEST(Blob, Mt19937RoundTripIsExact) {
  std::mt19937 g(123);
  for (int i = 0; i < 1000; ++i) g();  // advance into the middle of the period
  resilience::BlobWriter w;
  resilience::put_rng(w, g);
  std::mt19937 h;
  resilience::BlobReader r(w.data());
  resilience::get_rng(r, h);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(g(), h());
}

// ---------------- snapshot framing ----------------

TEST(Snapshot, FrameRoundTripAndNoTmpResidue) {
  const std::string dir = test_dir("frame");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/a.ckpt";
  const std::vector<std::uint8_t> payload{1, 2, 3, 250, 0, 7};
  resilience::write_frame_atomic(path, payload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // atomic: tmp renamed away
  EXPECT_EQ(resilience::read_frame(path), payload);
}

TEST(Snapshot, MissingFileThrows) {
  EXPECT_THROW(resilience::read_frame(test_dir("missing") + "/nope.ckpt"),
               resilience::SnapshotError);
}

TEST(Snapshot, FlippedByteFailsCrc) {
  const std::string dir = test_dir("crc");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/a.ckpt";
  resilience::write_frame_atomic(path, std::vector<std::uint8_t>(64, 9));
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24 + 10);  // a payload byte
    char b = 0x55;
    f.write(&b, 1);
  }
  EXPECT_THROW(resilience::read_frame(path), resilience::CorruptError);
}

TEST(Snapshot, TruncatedFileThrows) {
  const std::string dir = test_dir("trunc");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/a.ckpt";
  resilience::write_frame_atomic(path, std::vector<std::uint8_t>(64, 9));
  std::filesystem::resize_file(path, 40);  // header + partial payload
  EXPECT_THROW(resilience::read_frame(path), resilience::CorruptError);
}

TEST(Snapshot, BadMagicThrows) {
  const std::string dir = test_dir("magic");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/a.ckpt";
  std::ofstream(path, std::ios::binary) << "definitely not a checkpoint file";
  EXPECT_THROW(resilience::read_frame(path), resilience::CorruptError);
}

TEST(Snapshot, Crc32KnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(resilience::crc32("123456789", 9), 0xCBF43926u);
}

// ---------------- checkpoint coordinator (serial) ----------------

struct RankData {
  std::vector<double> v;
  void save_state(resilience::BlobWriter& w) const { w.vec(v); }
  void load_state(resilience::BlobReader& r) { v = r.vec<double>(); }
};

TEST(Coordinator, SerialSaveLoadRoundTrip) {
  const std::string dir = test_dir("serial");
  RankData a{{1.0, 2.0, 3.0}}, b{{-4.0}};
  resilience::CheckpointCoordinator save_coord;
  save_coord.add("a", a);
  save_coord.add("b", b);
  EXPECT_GT(save_coord.save(dir, 11, 0.5), 0u);

  RankData a2, b2;
  resilience::CheckpointCoordinator load_coord;
  // registration order may differ: streams dispatch by name
  load_coord.add("b", b2);
  load_coord.add("a", a2);
  const auto info = load_coord.load(dir);
  EXPECT_EQ(info.step, 11u);
  EXPECT_DOUBLE_EQ(info.time, 0.5);
  EXPECT_EQ(info.world_size, 1);
  EXPECT_EQ(a2.v, a.v);
  EXPECT_EQ(b2.v, b.v);

  const auto peeked = resilience::CheckpointCoordinator::peek(dir);
  EXPECT_EQ(peeked.step, 11u);
  EXPECT_EQ(peeked.world_size, 1);
}

TEST(Coordinator, DuplicateComponentNameThrows) {
  RankData a;
  resilience::CheckpointCoordinator coord;
  coord.add("x", a);
  EXPECT_THROW(coord.add("x", a), std::invalid_argument);
}

TEST(Coordinator, ComponentSetMismatchIsLayoutError) {
  const std::string dir = test_dir("compset");
  RankData a{{1.0}};
  resilience::CheckpointCoordinator save_coord;
  save_coord.add("a", a);
  save_coord.save(dir, 0, 0.0);

  RankData b;
  resilience::CheckpointCoordinator load_coord;
  load_coord.add("renamed", b);
  EXPECT_THROW(load_coord.load(dir), resilience::LayoutError);
}

TEST(Coordinator, CorruptedStreamFailsCleanly) {
  const std::string dir = test_dir("corrupt");
  RankData a{std::vector<double>(32, 3.25)};
  resilience::FaultPlan plan;
  plan.corrupt_stream(/*world_rank=*/0, /*at_save=*/0);
  resilience::CheckpointCoordinator coord;
  coord.add("a", a);
  coord.set_fault_plan(&plan);
  coord.save(dir, 0, 0.0);

  RankData a2;
  resilience::CheckpointCoordinator load_coord;
  load_coord.add("a", a2);
  EXPECT_THROW(load_coord.load(dir), resilience::CorruptError);
}

TEST(Coordinator, DroppedStreamFailsCleanly) {
  const std::string dir = test_dir("drop");
  RankData a{{1.0}};
  resilience::FaultPlan plan;
  plan.drop_stream(/*world_rank=*/0, /*at_save=*/0);
  resilience::CheckpointCoordinator coord;
  coord.add("a", a);
  coord.set_fault_plan(&plan);
  coord.save(dir, 0, 0.0);  // manifest written, rank stream missing

  RankData a2;
  resilience::CheckpointCoordinator load_coord;
  load_coord.add("a", a2);
  EXPECT_THROW(load_coord.load(dir), resilience::SnapshotError);
}

TEST(Coordinator, SecondSaveCanBeTheFaultyOne) {
  const std::string dir0 = test_dir("nth-0");
  const std::string dir1 = test_dir("nth-1");
  RankData a{{2.0}};
  resilience::FaultPlan plan;
  plan.corrupt_stream(/*world_rank=*/0, /*at_save=*/1);
  resilience::CheckpointCoordinator coord;
  coord.add("a", a);
  coord.set_fault_plan(&plan);
  coord.save(dir0, 0, 0.0);
  coord.save(dir1, 1, 0.1);

  RankData a2;
  resilience::CheckpointCoordinator load_coord;
  load_coord.add("a", a2);
  EXPECT_NO_THROW(load_coord.load(dir0));
  EXPECT_THROW(load_coord.load(dir1), resilience::CorruptError);
}

// ---------------- checkpoint coordinator (distributed) ----------------

TEST(Coordinator, DistributedSaveLoadRoundTrip) {
  const std::string dir = test_dir("dist");
  xmp::run(3, [&](xmp::Comm& world) {
    RankData mine{std::vector<double>(4, world.rank() + 0.5)};
    resilience::CheckpointCoordinator coord(world);
    coord.add("rankdata", mine);
    coord.save(dir, 7, 0.25);

    RankData fresh;
    resilience::CheckpointCoordinator load_coord(world);
    load_coord.add("rankdata", fresh);
    const auto info = load_coord.load(dir);
    EXPECT_EQ(info.step, 7u);
    EXPECT_EQ(info.world_size, 3);
    EXPECT_EQ(fresh.v, mine.v);
  });
}

TEST(Coordinator, WorldSizeMismatchIsLayoutError) {
  const std::string dir = test_dir("layout");
  xmp::run(2, [&](xmp::Comm& world) {
    RankData mine{{static_cast<double>(world.rank())}};
    resilience::CheckpointCoordinator coord(world);
    coord.add("rankdata", mine);
    coord.save(dir, 0, 0.0);
  });
  // restoring a 2-rank checkpoint on 1 rank must be refused
  RankData d;
  resilience::CheckpointCoordinator serial;
  serial.add("rankdata", d);
  EXPECT_THROW(serial.load(dir), resilience::LayoutError);
}

// ---------------- fault injection ----------------

TEST(Fault, CheckThrowsOnlyAtScheduledRankAndStep) {
  resilience::FaultPlan plan;
  plan.kill_rank(/*world_rank=*/2, /*step=*/5);
  EXPECT_NO_THROW(plan.check(1, 5));
  EXPECT_NO_THROW(plan.check(2, 4));
  try {
    plan.check(2, 5);
    FAIL() << "expected InjectedFault";
  } catch (const resilience::InjectedFault& e) {
    EXPECT_EQ(e.rank, 2);
    EXPECT_EQ(e.step, 5u);
  }
}

TEST(Fault, UncaughtKillAbortsTheWholeRun) {
  // xmp semantics: the victim's exception wakes every blocked rank and
  // xmp::run rethrows the original InjectedFault to the caller.
  resilience::FaultPlan plan;
  plan.kill_rank(/*world_rank=*/1, /*step=*/2);
  EXPECT_THROW(xmp::run(3,
                        [&](xmp::Comm& world) {
                          for (std::uint64_t s = 0; s < 5; ++s) {
                            plan.check(world, s);
                            world.barrier();
                          }
                        }),
               resilience::InjectedFault);
}

// ---------------- solver round trips (bitwise) ----------------

sem::NavierStokes<sem::Discretization> make_ns2d(const sem::Discretization& disc) {
  sem::NavierStokes<sem::Discretization>::Params p;
  p.nu = 0.05;
  p.dt = 2e-3;
  p.time_order = 2;
  sem::NavierStokes<sem::Discretization> ns(disc, p);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  return ns;
}

TEST(RoundTrip, Ns2dContinuesBitwise) {
  auto mesh = mesh::QuadMesh::channel(2.0, 1.0, 4, 1);
  sem::Discretization disc(mesh, 3);
  auto ns = make_ns2d(disc);
  for (int s = 0; s < 5; ++s) ns.step();

  const auto snap = state_of(ns);
  auto restored = make_ns2d(disc);
  resilience::BlobReader r(snap);
  restored.load_state(r);
  r.expect_end();

  // the restored solver must be indistinguishable from the original: same
  // CG iteration counts (warm-start projector state carried over), then
  // bit-identical fields after further steps
  for (int s = 0; s < 3; ++s) EXPECT_EQ(ns.step(), restored.step());
  EXPECT_EQ(state_of(ns), state_of(restored));
  EXPECT_DOUBLE_EQ(ns.time(), restored.time());
}

sem::NavierStokes<sem::Discretization3D> make_ns3d(const sem::Discretization3D& d) {
  sem::NavierStokes<sem::Discretization3D>::Params p;
  p.nu = 0.05;
  p.dt = 2e-3;
  p.time_order = 2;
  p.pressure_dirichlet_faces = {sem::HexFace::X1};
  sem::NavierStokes<sem::Discretization3D> ns(d, p);
  auto prof = [](double, double, double z, double) { return 4.0 * z * (1.0 - z); };
  auto zero = [](double, double, double, double) { return 0.0; };
  ns.set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
  ns.set_natural_bc(sem::HexFace::X1);
  return ns;
}

TEST(RoundTrip, Ns3dContinuesBitwise) {
  sem::Discretization3D d(1.0, 1.0, 1.0, 2, 1, 1, 3);
  auto ns = make_ns3d(d);
  for (int s = 0; s < 4; ++s) ns.step();

  const auto snap = state_of(ns);
  auto restored = make_ns3d(d);
  resilience::BlobReader r(snap);
  restored.load_state(r);
  r.expect_end();

  for (int s = 0; s < 2; ++s) EXPECT_EQ(ns.step(), restored.step());
  EXPECT_EQ(state_of(ns), state_of(restored));
}

TEST(RoundTrip, Ns2dFieldSizeMismatchIsLayoutError) {
  auto mesh = mesh::QuadMesh::channel(2.0, 1.0, 4, 1);
  sem::Discretization disc(mesh, 3);
  auto ns = make_ns2d(disc);
  ns.step();
  const auto snap = state_of(ns);

  auto mesh2 = mesh::QuadMesh::channel(2.0, 1.0, 6, 2);  // different resolution
  sem::Discretization disc2(mesh2, 3);
  auto other = make_ns2d(disc2);
  resilience::BlobReader r(snap);
  EXPECT_THROW(other.load_state(r), resilience::LayoutError);
}

struct DpdWorld {
  dpd::DpdSystem sys;
  std::shared_ptr<dpd::BondSet> bonds = std::make_shared<dpd::BondSet>();
  std::shared_ptr<dpd::PlateletModel> platelets;
  dpd::FlowBc bc;

  static dpd::DpdParams params() {
    dpd::DpdParams p;
    p.box = {8.0, 4.0, 6.0};
    p.periodic = {false, true, false};
    p.dt = 0.01;
    return p;
  }
  static dpd::FlowBcParams bc_params() {
    dpd::FlowBcParams p;
    p.axis = 0;
    p.relax = 0.3;
    p.target_velocity = [](const dpd::Vec3&) { return dpd::Vec3{0.5, 0.0, 0.0}; };
    return p;
  }
  static dpd::PlateletParams platelet_params() {
    dpd::PlateletParams p;
    p.adhesive_region = [](const dpd::Vec3& x) { return x.x > 3.0 && x.x < 5.0; };
    return p;
  }

  explicit DpdWorld(bool populate)
      : sys(params(), std::make_shared<dpd::ChannelZ>(6.0)),
        platelets(std::make_shared<dpd::PlateletModel>(platelet_params())),
        bc(bc_params()) {
    sys.add_module(bonds);
    sys.add_module(platelets);
    if (populate) {
      sys.fill(2.0, dpd::kSolvent, 3, 0.1);
      dpd::RbcRingParams rp;
      rp.center = {4.0, 2.0, 3.0};
      rp.radius = 1.2;
      rp.beads = 10;
      dpd::make_rbc_ring(sys, *bonds, rp);
      platelets->seed_platelets(sys, 3, 11);
    }
  }

  void advance(int steps) {
    for (int s = 0; s < steps; ++s) {
      sys.step();
      bc.apply(sys);
      platelets->update(sys);
    }
  }
  std::vector<std::uint8_t> state() const {
    resilience::BlobWriter w;
    sys.save_state(w);
    bonds->save_state(w);
    platelets->save_state(w);
    bc.save_state(w);
    return w.take();
  }
  void restore(const std::vector<std::uint8_t>& snap) {
    resilience::BlobReader r(snap);
    sys.load_state(r);
    bonds->load_state(r);
    platelets->load_state(r);
    bc.load_state(r);
    r.expect_end();
  }
};

TEST(RoundTrip, DpdWithBondsPlateletsAndFlowBcContinuesBitwise) {
  DpdWorld a(/*populate=*/true);
  a.advance(5);

  DpdWorld b(/*populate=*/false);
  b.restore(a.state());
  EXPECT_EQ(b.sys.size(), a.sys.size());
  EXPECT_EQ(b.sys.step_count(), a.sys.step_count());

  // the DPD random force is a counter-based hash of (step, i, j) and the
  // inflow RNG was restored, so both worlds must evolve identically
  a.advance(5);
  b.advance(5);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.bc.inserted_total(), b.bc.inserted_total());
}

TEST(RoundTrip, FlowBcRejectsAFluidVolumeItNeverWrites) {
  // The cached fluid volume closes the FlowBc blob: -1 until the first
  // insertion estimates it, a positive volume after. A zero volume would
  // silently stop insertion for the rest of the run and NaN would switch
  // off the density guard, so the load refuses every other value.
  DpdWorld a(/*populate=*/true);
  const auto fresh = state_of(a.bc);
  a.advance(5);
  const auto estimated = state_of(a.bc);
  const auto volume_of = [](const std::vector<std::uint8_t>& blob) {
    double v = 0.0;
    std::memcpy(&v, blob.data() + blob.size() - sizeof v, sizeof v);
    return v;
  };
  ASSERT_EQ(volume_of(fresh), -1.0);
  ASSERT_GT(volume_of(estimated), 0.0);
  const auto load_with_volume = [&](std::vector<std::uint8_t> blob, double volume) {
    std::memcpy(blob.data() + blob.size() - sizeof volume, &volume, sizeof volume);
    dpd::FlowBc bc(DpdWorld::bc_params());
    resilience::BlobReader r(blob);
    bc.load_state(r);
    r.expect_end();
  };
  EXPECT_NO_THROW(load_with_volume(fresh, -1.0));
  EXPECT_NO_THROW(load_with_volume(estimated, volume_of(estimated)));
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {0.0, -0.0, -2.0, std::numeric_limits<double>::quiet_NaN(), inf, -inf})
    EXPECT_THROW(load_with_volume(estimated, bad), resilience::CorruptError)
        << "volume " << bad;
}

// Pins PlateletModel::trigger_time_ while it is live: the checkpoint is
// taken mid-activation-delay (platelets Triggered but not yet Active), so
// the restored run reaches Active at exactly the same step as the
// uninterrupted one only if the pending trigger timestamps were serialised.
// The coverage gap this closes was surfaced by the tools/analyze
// checkpoint-coverage pass: no other test crossed a restart with the
// activation state machine mid-flight.
struct PlateletWorld {
  dpd::DpdSystem sys;
  std::shared_ptr<dpd::PlateletModel> platelets;

  static dpd::DpdParams params() {
    dpd::DpdParams p;
    p.box = {8.0, 4.0, 6.0};
    p.periodic = {false, true, false};
    p.dt = 0.01;
    return p;
  }
  static dpd::PlateletParams platelet_params() {
    dpd::PlateletParams p;
    p.adhesive_region = [](const dpd::Vec3&) { return true; };
    p.trigger_distance = 1e9;   // trigger on the first update, anywhere
    p.activation_delay = 0.07;  // 7 steps at dt = 0.01
    p.bind_speed = 0.0;         // never arrest: keep the Active count stable
    return p;
  }

  explicit PlateletWorld(bool populate)
      : sys(params(), std::make_shared<dpd::ChannelZ>(6.0)),
        platelets(std::make_shared<dpd::PlateletModel>(platelet_params())) {
    sys.add_module(platelets);
    if (populate) {
      sys.fill(2.0, dpd::kSolvent, 3, 0.1);
      platelets->seed_platelets(sys, 2, 7);
    }
  }

  void advance(int steps) {
    for (int s = 0; s < steps; ++s) {
      sys.step();
      platelets->update(sys);
    }
  }
  std::vector<std::uint8_t> state() const {
    resilience::BlobWriter w;
    sys.save_state(w);
    platelets->save_state(w);
    return w.take();
  }
  void restore(const std::vector<std::uint8_t>& snap) {
    resilience::BlobReader r(snap);
    sys.load_state(r);
    platelets->load_state(r);
    r.expect_end();
  }
};

TEST(RoundTrip, PlateletTriggerTimeSurvivesMidDelayRestart) {
  PlateletWorld a(/*populate=*/true);
  a.advance(3);  // triggered at the first update; activation 7 steps later
  ASSERT_EQ(a.platelets->count(dpd::PlateletState::Triggered), 2u);
  ASSERT_EQ(a.platelets->count(dpd::PlateletState::Active), 0u);

  PlateletWorld b(/*populate=*/false);
  b.restore(a.state());
  EXPECT_EQ(b.platelets->count(dpd::PlateletState::Triggered), 2u);

  // both worlds must flip Triggered -> Active on exactly the same step
  for (int s = 0; s < 8; ++s) {
    a.advance(1);
    b.advance(1);
    EXPECT_EQ(a.platelets->count(dpd::PlateletState::Active),
              b.platelets->count(dpd::PlateletState::Active))
        << "diverged at step " << s;
  }
  EXPECT_EQ(a.platelets->count(dpd::PlateletState::Active), 2u);
  EXPECT_EQ(a.state(), b.state());
}

nektar1d::ArterialNetwork make_bifurcation() {
  nektar1d::ArterialNetwork net;
  nektar1d::VesselParams vp;
  vp.elements = 4;
  vp.order = 3;
  const int parent = net.add_vessel(vp);
  vp.A0 = 0.3;
  const int child1 = net.add_vessel(vp);
  const int child2 = net.add_vessel(vp);
  net.set_inlet_flow(parent, [](double t) { return 1.0 + 0.3 * std::sin(6.28 * t); });
  net.set_outlet_rcr(child1, 100.0, 500.0, 1e-4);
  net.set_outlet_resistance(child2, 400.0);
  net.add_junction({{parent, nektar1d::End::Right},
                    {child1, nektar1d::End::Left},
                    {child2, nektar1d::End::Left}});
  return net;
}

TEST(RoundTrip, ArterialNetworkContinuesBitwise) {
  auto net = make_bifurcation();
  const double dt = 0.5 * net.suggested_dt();
  for (int s = 0; s < 20; ++s) net.step(dt);

  const auto snap = state_of(net);
  auto restored = make_bifurcation();
  resilience::BlobReader r(snap);
  restored.load_state(r);
  r.expect_end();

  for (int s = 0; s < 10; ++s) {
    net.step(dt);
    restored.step(dt);
  }
  EXPECT_EQ(state_of(net), state_of(restored));
  EXPECT_DOUBLE_EQ(net.time(), restored.time());
}

TEST(RoundTrip, ArterialNetworkTopologyMismatchIsLayoutError) {
  auto net = make_bifurcation();
  const auto snap = state_of(net);
  nektar1d::ArterialNetwork single;
  single.add_vessel({});
  resilience::BlobReader r(snap);
  EXPECT_THROW(single.load_state(r), resilience::LayoutError);
}

TEST(RoundTrip, StreamingWpodContinuesExactly) {
  wpod::StreamingWpod a;
  const std::size_t nbins = 12;
  auto snapshot_at = [&](int t) {
    la::Vector v(nbins);
    for (std::size_t b = 0; b < nbins; ++b)
      v[b] = std::sin(0.1 * t + 0.5 * static_cast<double>(b));
    return v;
  };
  int t = 0;
  for (; t < 21; ++t) a.push(snapshot_at(t));  // mid-stride: buffered state matters

  wpod::StreamingWpod b;
  const auto snap = state_of(a);
  resilience::BlobReader r(snap);
  b.load_state(r);
  r.expect_end();
  EXPECT_EQ(b.window(), a.window());
  EXPECT_EQ(b.analyses_done(), a.analyses_done());

  for (; t < 40; ++t) {
    auto ra = a.push(snapshot_at(t));
    auto rb = b.push(snapshot_at(t));
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (ra) {
      EXPECT_EQ(ra->k_mean, rb->k_mean);
      ASSERT_EQ(ra->eigenvalues.size(), rb->eigenvalues.size());
      for (std::size_t k = 0; k < ra->eigenvalues.size(); ++k)
        EXPECT_DOUBLE_EQ(ra->eigenvalues[k], rb->eigenvalues[k]);
    }
  }
  EXPECT_EQ(state_of(a), state_of(b));
}

TEST(RoundTrip, StreamingWpodRejectsAWindowOutsideItsBounds) {
  // The window length opens the blob. One above max_window never analyses
  // again (the buffer holds at most max_window snapshots), and 0 makes the
  // next due push throw from wpod::analyze, so the load refuses both.
  wpod::StreamingWpod a;
  for (int t = 0; t < 21; ++t) {
    la::Vector v(12);
    for (std::size_t b = 0; b < v.size(); ++b)
      v[b] = std::sin(0.1 * t + 0.5 * static_cast<double>(b));
    a.push(v);
  }
  const auto load_with_window = [&](std::uint64_t window) {
    auto blob = state_of(a);
    std::memcpy(blob.data(), &window, sizeof window);
    wpod::StreamingWpod b;
    resilience::BlobReader r(blob);
    b.load_state(r);
    r.expect_end();
    return b.window();
  };
  const wpod::StreamingWpod::Options opt;
  EXPECT_EQ(load_with_window(opt.min_window), opt.min_window);
  EXPECT_EQ(load_with_window(opt.max_window), opt.max_window);
  for (std::uint64_t bad : {std::uint64_t{0}, std::uint64_t{opt.min_window - 1},
                            std::uint64_t{opt.max_window + 1}, std::uint64_t{1} << 40})
    EXPECT_THROW(load_with_window(bad), resilience::CorruptError) << "window " << bad;
}

// ---------------- mini coupled run: 2N steps == N + restart + N ----------------

struct MiniCoupled {
  mesh::QuadMesh msh;
  sem::Discretization disc;
  sem::NavierStokes<sem::Discretization> ns;
  dpd::DpdSystem sys;
  dpd::FlowBc bc;
  coupling::BasicContinuumDpdCoupler<sem::NavierStokes<sem::Discretization>> cdc;
  dpd::FieldSampler sampler;

  static sem::NavierStokes<sem::Discretization>::Params ns_params() {
    sem::NavierStokes<sem::Discretization>::Params p;
    p.nu = 0.05;
    p.dt = 2e-3;
    return p;
  }
  static dpd::DpdParams dpd_params() {
    dpd::DpdParams p;
    p.box = {8.0, 4.0, 6.0};
    p.periodic = {false, true, false};
    p.dt = 0.01;
    return p;
  }
  static dpd::FlowBcParams bc_params() {
    dpd::FlowBcParams p;
    p.axis = 0;
    p.relax = 0.3;
    return p;
  }
  static coupling::ScaleMap scale_map() {
    coupling::ScaleMap s;
    s.L_ns = 1.0;
    s.L_dpd = 6.0;
    s.nu_ns = 0.05;
    s.nu_dpd = 2.5;
    return s;
  }
  static coupling::TimeProgression progression() {
    coupling::TimeProgression tp;
    tp.dt_ns = 2e-3;
    tp.exchange_every_ns = 1;
    tp.dpd_per_ns = 2;
    return tp;
  }
  static dpd::SamplerParams sampler_params() {
    dpd::SamplerParams p;
    p.nx = 1;
    p.ny = 1;
    p.nz = 6;
    return p;
  }

  explicit MiniCoupled(bool populate)
      : msh(mesh::QuadMesh::channel(2.0, 1.0, 4, 1)),
        disc(msh, 3),
        ns(disc, ns_params()),
        sys(dpd_params(), std::make_shared<dpd::ChannelZ>(6.0)),
        bc(bc_params()),
        cdc(ns, sys, bc, /*region=*/{0.5, 1.5, 0.0, 1.0}, scale_map(), progression()),
        sampler(sys, sampler_params()) {
    ns.set_velocity_bc(mesh::kInlet,
                       [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                       [](double, double, double) { return 0.0; });
    ns.set_natural_bc(mesh::kOutlet);
    if (populate) {
      for (int s = 0; s < 20; ++s) ns.step();
      sys.fill(2.0, dpd::kSolvent, 3, 0.1);
    }
  }

  void register_components(resilience::CheckpointCoordinator& coord) {
    coord.add("ns2d", ns);
    coord.add("dpd", sys);
    coord.add("flowbc", bc);
    coord.add("cdc", cdc);
    coord.add("sampler", sampler);
  }
  void advance(int intervals) {
    for (int i = 0; i < intervals; ++i)
      cdc.advance_interval([&] { sampler.accumulate(sys); });
  }
  std::vector<std::uint8_t> state() const {
    resilience::BlobWriter w;
    ns.save_state(w);
    sys.save_state(w);
    bc.save_state(w);
    cdc.save_state(w);
    sampler.save_state(w);
    return w.take();
  }
};

TEST(RestartEquivalence, CoupledRunMatchesUninterruptedBitwise) {
  const std::string dir = test_dir("coupled");

  MiniCoupled uninterrupted(/*populate=*/true);
  uninterrupted.advance(4);

  MiniCoupled first_half(/*populate=*/true);
  first_half.advance(2);
  {
    resilience::CheckpointCoordinator coord;
    first_half.register_components(coord);
    coord.save(dir, 2, first_half.ns.time());
  }

  MiniCoupled resumed(/*populate=*/false);
  {
    resilience::CheckpointCoordinator coord;
    resumed.register_components(coord);
    const auto info = coord.load(dir);
    EXPECT_EQ(info.step, 2u);
  }
  resumed.advance(2);

  EXPECT_EQ(resumed.state(), uninterrupted.state());
  EXPECT_EQ(resumed.cdc.exchanges(), uninterrupted.cdc.exchanges());
}

// ---------------- replica failover ----------------

TEST(Failover, NothingLostIsANoOp) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);
    EXPECT_TRUE(ens.exchange_health(true));
    EXPECT_EQ(ens.num_replicas(), 3);
    EXPECT_EQ(ens.replicas_lost(), 0);
  });
}

TEST(Failover, SlaveReplicaLossShrinksToSurvivors) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);  // replicas {0,1},{2,3},{4,5}
    const int orig_rid = ens.replica_id();
    const bool healthy = world.rank() != 3;  // rank 3 dies -> replica 1 retired
    const bool alive = ens.exchange_health(healthy);

    if (orig_rid == 1) {
      EXPECT_FALSE(alive);
      EXPECT_FALSE(ens.replica_comm().valid());
      return;  // retired ranks leave the step loop
    }
    ASSERT_TRUE(alive);
    EXPECT_EQ(ens.num_replicas(), 2);
    EXPECT_EQ(ens.replicas_lost(), 1);
    // master replica untouched; old replica 2 renumbered to 1
    EXPECT_EQ(ens.replica_id(), orig_rid == 0 ? 0 : 1);
    EXPECT_EQ(ens.is_ensemble_root(), world.rank() == 0);

    // the ensemble average now runs over the survivors only
    std::vector<double> mine(3, static_cast<double>(orig_rid));
    const auto avg = ens.gather_average(mine);
    ASSERT_EQ(avg.size(), 3u);
    for (double v : avg) EXPECT_DOUBLE_EQ(v, 1.0);  // (0 + 2) / 2
  });
}

TEST(Failover, MasterLossPromotesLowestSurvivor) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);
    const int orig_rid = ens.replica_id();
    const bool healthy = world.rank() != 1;  // kill a master-replica member
    const bool alive = ens.exchange_health(healthy);

    if (orig_rid == 0) {
      EXPECT_FALSE(alive);
      return;
    }
    ASSERT_TRUE(alive);
    EXPECT_EQ(ens.num_replicas(), 2);
    // old replica 1 is the new master; its root (world rank 2) owns the
    // continuum channel now
    EXPECT_EQ(ens.replica_id(), orig_rid - 1);
    EXPECT_EQ(ens.is_master_replica(), orig_rid == 1);
    EXPECT_EQ(ens.is_ensemble_root(), world.rank() == 2);

    std::vector<double> mine(2, static_cast<double>(orig_rid));
    const auto avg = ens.gather_average(mine);
    for (double v : avg) EXPECT_DOUBLE_EQ(v, 1.5);  // (1 + 2) / 2
  });
}

TEST(Failover, EveryReplicaFailingThrows) {
  EXPECT_THROW(xmp::run(3,
                        [](xmp::Comm& world) {
                          coupling::ReplicaEnsemble ens(world, 3);
                          ens.exchange_health(false);
                        }),
               std::runtime_error);
}

TEST(Failover, RepeatedLossesAccumulate) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);
    const int orig_rid = ens.replica_id();
    if (!ens.exchange_health(world.rank() != 5)) return;  // lose replica 2
    if (!ens.exchange_health(world.rank() != 2)) return;  // then lose old replica 1
    EXPECT_EQ(ens.num_replicas(), 1);
    EXPECT_EQ(ens.replicas_lost(), 2);
    EXPECT_EQ(orig_rid, 0);
    EXPECT_TRUE(ens.is_master_replica());
  });
}

// ---------------- acceptance: continuum-side trace equivalence ----------------
//
// The ISSUE's acceptance criterion: under an injected slave-replica failure
// the coupled run completes and the continuum-side interface traffic (who
// talks to rank 0, how many messages, how many bytes) is IDENTICAL to a run
// that started with the surviving replica count. The continuum never learns
// the ensemble shrank.

constexpr int kInterfaceTag = 777;

std::map<std::tuple<int, int, std::string>, std::pair<std::uint64_t, std::uint64_t>>
interface_cells(const telemetry::CommMatrix& m) {
  std::map<std::tuple<int, int, std::string>, std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [key, cell] : m.cells()) {
    const auto& [src, dst, cls] = key;
    if (cls != "interface") continue;  // collectives classify by kind, not tag
    EXPECT_TRUE(src == 0 || dst == 0) << "interface traffic must touch the continuum";
    out[key] = {cell.messages, cell.bytes};
  }
  return out;
}

void coupled_replica_run(int atomistic_ranks, int replicas, int kill_world_rank,
                         telemetry::CommMatrix& matrix) {
  constexpr int kSteps = 3;
  xmp::run(
      1 + atomistic_ranks,
      [&](xmp::Comm& world) {
        const bool continuum = world.rank() == 0;
        xmp::Comm part = world.split(continuum ? 0 : 1, world.rank());
        if (continuum) {
          // The continuum side: answer kSteps interface exchanges from
          // whichever rank owns the channel (kAnySource: failover-agnostic).
          for (int s = 0; s < kSteps; ++s) {
            int src = -1;
            auto q = world.recv<double>(xmp::kAnySource, kInterfaceTag, &src);
            std::vector<double> reply(q.size(), 2.0 * static_cast<double>(s));
            world.send(src, kInterfaceTag, reply);
          }
          return;
        }

        coupling::ReplicaEnsemble ens(part, replicas);
        // step-0 process fault on the scheduled victim, reported through the
        // health exchange; retired ranks exit before any interface traffic
        const bool healthy = world.rank() != kill_world_rank;
        if (!ens.exchange_health(healthy)) return;

        for (int s = 0; s < kSteps; ++s) {
          std::vector<double> mine(4, static_cast<double>(world.rank()));
          auto avg = ens.gather_average(mine);
          if (ens.is_ensemble_root()) {
            world.send(0, kInterfaceTag, avg);
            auto reply = world.recv<double>(0, kInterfaceTag);
            ens.distribute(std::move(reply));
          } else {
            ens.distribute({});
          }
        }
      },
      matrix.sink());
}

TEST(Failover, ContinuumInterfaceTraceIsIdenticalToSurvivorCountRun) {
  telemetry::TagClasses classes;
  classes.add(kInterfaceTag, "interface");

  // 6 atomistic ranks in 3 replicas; world rank 3 (slave replica 1) dies
  telemetry::CommMatrix with_failure{classes};
  coupled_replica_run(/*atomistic_ranks=*/6, /*replicas=*/3, /*kill_world_rank=*/3,
                      with_failure);

  // reference: born with the surviving replica count, no failure
  telemetry::CommMatrix reference{classes};
  coupled_replica_run(/*atomistic_ranks=*/4, /*replicas=*/2, /*kill_world_rank=*/-1,
                      reference);

  const auto a = interface_cells(with_failure);
  const auto b = interface_cells(reference);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "failure run:\n"
                  << with_failure.format() << "\nreference run:\n" << reference.format();
}

// ---------------- ensemble bookkeeping checkpoint ----------------

TEST(Failover, EnsembleShapeCheckpointVerifiesOnLoad) {
  xmp::run(6, [](xmp::Comm& world) {
    coupling::ReplicaEnsemble ens(world, 3);
    const auto snap = state_of(ens);
    resilience::BlobReader ok(snap);
    EXPECT_NO_THROW(ens.load_state(ok));

    coupling::ReplicaEnsemble other(world, 2);  // different shape must refuse
    resilience::BlobReader bad(snap);
    EXPECT_THROW(other.load_state(bad), resilience::LayoutError);
  });
}

}  // namespace
