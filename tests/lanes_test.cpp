// Intra-rank lanes: the process's one thread pool, which runs the ranks of
// every xmp::run and the fork-join passes behind the DPD force pass and the
// 3D continuum passes (xmp/sched/lanes.hpp, sem/split.hpp), and the
// contract it serves: a DPD trajectory, a SEM field and a coupled run's
// digest are bitwise the same whether their passes split over every idle
// core or run inline (one_lane.hpp). Every comparison is bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "dpd/exchange/distributed.hpp"
#include "dpd/inflow.hpp"
#include "dpd/platelets.hpp"
#include "dpd/system.hpp"
#include "one_lane.hpp"
#include "resilience/blob.hpp"
#include "scenario/runner.hpp"
#include "scenario/schema.hpp"
#include "sem/helmholtz.hpp"
#include "sem/navier_stokes.hpp"
#include "sem/split.hpp"
#include "telemetry/registry.hpp"
#include "xmp/comm.hpp"
#include "xmp/sched/lanes.hpp"

namespace {

int hardware_threads() {
  return static_cast<int>(std::max(std::thread::hardware_concurrency(), 1u));
}

/// Lanes a pass outside xmp::run gets: the CPUs in this process's affinity
/// mask, up to the cap.
int outside_width() {
  int cpus = hardware_threads();
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
#endif
  return std::min(cpus, xmp::lanes::kMaxLanes);
}

std::vector<std::uint8_t> state_of(const dpd::DpdSystem& sys) {
  resilience::BlobWriter w;
  sys.save_state(w);
  return w.take();
}

/// A run's fingerprint and how many lanes its force passes used.
struct Outcome {
  std::uint64_t digest = 0;
  std::vector<std::uint8_t> state;
  double lanes = 0.0;       ///< dpd.lanes: lanes summed over force passes
  std::uint64_t passes = 0;  ///< force passes that recorded dpd.lanes
};

template <class Fn>
Outcome observe(Fn&& fn) {
  telemetry::Registry::local().clear();
  Outcome out;
  const dpd::DpdSystem& sys = fn();
  out.digest = dpd::exchange::trajectory_digest(sys);
  out.state = state_of(sys);
  const auto c = telemetry::Registry::local().counters()["dpd.lanes"];
  out.lanes = c.value;
  out.passes = c.count;
  return out;
}

/// The same run on every core and inline: equal bits, and the first really
/// split when the process may use a second core.
template <class Fn>
void expect_lane_count_invariant(Fn&& run) {
  const Outcome all = observe(run);
  Outcome one;
  on_one_lane([&] { one = observe(run); });
  ASSERT_GT(all.passes, 0u);
  EXPECT_EQ(one.lanes, static_cast<double>(one.passes)) << "inline passes used one lane";
  if (outside_width() >= 2) {
    EXPECT_GT(all.lanes, static_cast<double>(all.passes)) << "outside passes used more lanes";
  }
  EXPECT_EQ(all.digest, one.digest);
  EXPECT_EQ(all.state, one.state);
}

dpd::DpdParams open_channel_params() {
  dpd::DpdParams prm;
  prm.box = {10.0, 5.0, 5.0};
  prm.periodic = {false, true, true};
  return prm;
}

dpd::FlowBcParams open_channel_bc() {
  dpd::FlowBcParams bp;
  bp.axis = 0;
  bp.density = 3.0;
  bp.target_velocity = [](const dpd::Vec3&) { return dpd::Vec3{1.0, 0.0, 0.0}; };
  return bp;
}

}  // namespace

// ---------------- the pool ----------------

/// Lane 0 of a pass that holds the pass open until a helper joined (or a
/// second passed), so the helpers of a pass are sure to run.
void hold_open(const std::atomic<int>& helpers) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (helpers.load() == 0 && std::chrono::steady_clock::now() < until) std::this_thread::yield();
}

TEST(LanePool, EveryLaneThatRanRanOnceAndTheCallerIsLaneZero) {
  const int want = outside_width();
  int split = 0;
  for (int pass = 0; pass < 50; ++pass) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(want));
    std::atomic<int> helpers{0};
    const auto caller = std::this_thread::get_id();
    bool lane0_on_caller = false;
    int most = 0;
    auto body = [&](int lane, int m) {
      ++hits[static_cast<std::size_t>(lane)];
      if (lane == 0) {
        most = m;
        lane0_on_caller = std::this_thread::get_id() == caller;
        if (m >= 2) hold_open(helpers);
      } else {
        ++helpers;
      }
    };
    const xmp::lanes::Pass p = xmp::lanes::run(want, body);
    EXPECT_EQ(most, want);
    EXPECT_TRUE(lane0_on_caller);
    ASSERT_GE(p.lanes, 1);
    ASSERT_LE(p.lanes, want);
    split += p.lanes > 1;
    for (int k = 0; k < want; ++k)
      EXPECT_EQ(hits[static_cast<std::size_t>(k)].load(), k < p.lanes ? 1 : 0) << "lane " << k;
  }
  if (want >= 2) {
    EXPECT_GT(split, 0) << "helpers joined passes held open for them";
  }
}

TEST(LanePool, APassNeverWaitsForAHelperThatDidNotJoin) {
  // lane 0 does all the work; the pass returns at once whatever the helpers
  // are doing, and reports only the lanes that ran
  for (int pass = 0; pass < 1000; ++pass) {
    std::atomic<int> ran{0};
    auto body = [&](int, int) { ++ran; };
    const xmp::lanes::Pass p = xmp::lanes::run(hardware_threads(), body);
    EXPECT_EQ(ran.load(), p.lanes);
  }
}

TEST(LanePool, OneLaneRunsEveryOtherPassInline) {
  {
    const OneLane one;
    EXPECT_EQ(xmp::lanes::width(), 1);
    std::atomic<int> ran{0};
    int most = 0;
    auto body = [&](int, int m) {
      ++ran;
      most = m;
    };
    const xmp::lanes::Pass p = xmp::lanes::run(hardware_threads(), body);
    EXPECT_EQ(p.lanes, 1);
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(most, 1);
  }
  EXPECT_EQ(xmp::lanes::width(), outside_width());
}

TEST(LanePool, ARankOfAOneRankRunSplitsItsForcePass) {
  // The run's caller runs the rank, and the pool threads it leaves free
  // join the rank's passes: a DPD force pass on the rank records more than
  // one lane once a pool thread joined one.
  xmp::SchedOptions sched;
  sched.stack_kb = 4096;
  int inside = 0;
  bool helped = false;
  xmp::run(
      1,
      [&](xmp::Comm&) {
        inside = xmp::lanes::width();
        dpd::DpdSystem sys(open_channel_params(), std::make_shared<dpd::NoWalls>());
        sys.fill(3.0, dpd::kSolvent);
        telemetry::Registry::local().clear();
        for (int pass = 0; pass < 2000 && !helped; ++pass) {
          sys.compute_forces();
          const auto c = telemetry::Registry::local().counters()["dpd.lanes"];
          helped = c.value > static_cast<double>(c.count);
        }
      },
      nullptr, xmp::CheckOptions{}, sched);
  EXPECT_EQ(inside, outside_width());
  EXPECT_EQ(helped, outside_width() >= 2);
}

#if defined(__linux__)
namespace {

int os_threads() {
  int n = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

#if defined(__SANITIZE_THREAD__)
constexpr int kRuntimeThreads = 1;  // TSan's background thread
#else
constexpr int kRuntimeThreads = 0;
#endif

}  // namespace

TEST(LanePool, ThreadsNeverOutnumberTheMask) {
  // The process's threads: the pool, the caller included, plus the
  // checked-mode watchdog of a run under XMP_CHECK=1 (and a sanitizer
  // runtime's own thread).
  const int pool = outside_width() + kRuntimeThreads;
  const char* check = std::getenv("XMP_CHECK");
  const int most = pool + (check && std::string(check) == "1" ? 1 : 0);
  for (int pass = 0; pass < 20; ++pass) {
    auto body = [](int, int) {};
    xmp::lanes::run(hardware_threads(), body);
  }
  EXPECT_LE(os_threads(), pool) << "after passes outside any run";
  auto count_during = [&](int nranks, const xmp::SchedOptions& sched) {
    int during = 0;
    xmp::run(
        nranks,
        [&](xmp::Comm& world) {
          for (int pass = 0; pass < 20; ++pass) {
            auto body = [](int, int) {};
            xmp::lanes::run(hardware_threads(), body);
          }
          world.barrier();
          if (world.rank() == 0) during = os_threads();
          world.barrier();
        },
        nullptr, xmp::CheckOptions::from_env(), sched);
    return during;
  };
  xmp::SchedOptions two;
  two.workers = 2;
  EXPECT_LE(count_during(2, two), most) << "2 ranks on 2 workers";
  EXPECT_LE(count_during(4, xmp::SchedOptions{}), most) << "4 ranks at the default";
  EXPECT_EQ(xmp::lanes::width(), outside_width());
}
#endif

TEST(LanePool, LaneExceptionsReachTheCallerAfterTheJoin) {
  auto lane0 = [](int lane, int) {
    if (lane == 0) throw std::runtime_error("lane 0");
  };
  EXPECT_THROW(xmp::lanes::run(hardware_threads(), lane0), std::runtime_error);
  if (outside_width() < 2) return;
  // a helper's exception, once lane 0 has waited for the helper to join
  std::atomic<int> helpers{0};
  auto helper = [&](int lane, int) {
    if (lane == 0) {
      hold_open(helpers);
      return;
    }
    ++helpers;
    throw std::logic_error("helper");
  };
  bool thrown = false;
  for (int attempt = 0; attempt < 10 && !thrown; ++attempt) {
    helpers = 0;
    try {
      xmp::lanes::run(hardware_threads(), helper);
    } catch (const std::logic_error&) {
      thrown = true;
    }
  }
  EXPECT_TRUE(thrown);
  // the pool is free again
  std::atomic<int> ran{0};
  auto count = [&](int, int) { ++ran; };
  const xmp::lanes::Pass p = xmp::lanes::run(hardware_threads(), count);
  EXPECT_EQ(p.lanes, ran.load());
}

TEST(LanePool, PassesFromTwoThreadsBothComplete) {
  // a pass started while another is in flight runs inline
  std::atomic<long> sum{0};
  auto work = [&] {
    for (int pass = 0; pass < 200; ++pass) {
      auto body = [&](int lane, int) { sum += lane + 1; };
      xmp::lanes::run(hardware_threads(), body);
    }
  };
  std::thread other(work);
  work();
  other.join();
  EXPECT_GE(sum.load(), 400);
}

// ---------------- DPD force passes at any lane count ----------------

TEST(DpdLanes, FlowBcChurnRunIsLaneCountInvariant) {
  std::unique_ptr<dpd::DpdSystem> sys;
  expect_lane_count_invariant([&]() -> const dpd::DpdSystem& {
    sys = std::make_unique<dpd::DpdSystem>(open_channel_params(),
                                           std::make_shared<dpd::NoWalls>());
    sys->fill(3.0, dpd::kSolvent);
    dpd::FlowBc bc(open_channel_bc());
    for (int s = 0; s < 200; ++s) {
      sys->step();
      bc.apply(*sys);
    }
    EXPECT_GT(bc.inserted_total() + bc.deleted_total(), 200u);
    return *sys;
  });
}

TEST(DpdLanes, PlateletRunIsLaneCountInvariant) {
  std::unique_ptr<dpd::DpdSystem> sys;
  std::vector<int> states_all, states_one;
  bool first = true;
  expect_lane_count_invariant([&]() -> const dpd::DpdSystem& {
    dpd::DpdParams prm;
    prm.box = {12.0, 6.0, 6.0};
    prm.periodic = {true, true, false};
    sys = std::make_unique<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
    sys->fill(3.0, dpd::kSolvent, 7);
    dpd::PlateletParams pp;
    pp.adhesive_region = [](const dpd::Vec3& r) { return r.x > 4.0 && r.x < 8.0; };
    auto model = std::make_shared<dpd::PlateletModel>(pp);
    model->seed_platelets(*sys, 12, 11);
    sys->add_module(model);
    for (int s = 0; s < 60; ++s) {
      sys->step();
      model->update(*sys);
    }
    auto& states = first ? states_all : states_one;
    first = false;
    for (std::size_t k = 0; k < model->total(); ++k)
      states.push_back(static_cast<int>(model->state_of(k)));
    return *sys;
  });
  EXPECT_EQ(states_all, states_one);
}

TEST(DpdLanes, CheckpointRestartLegIsLaneCountInvariant) {
  // 30 steps, a checkpoint, and 30 more steps on a system restored from it:
  // checkpoint bytes and the restarted trajectory agree at any lane count
  std::vector<std::uint8_t> ckpt_all, ckpt_one;
  bool first = true;
  std::unique_ptr<dpd::DpdSystem> restarted;
  expect_lane_count_invariant([&]() -> const dpd::DpdSystem& {
    dpd::DpdSystem sys(open_channel_params(), std::make_shared<dpd::NoWalls>());
    sys.fill(3.0, dpd::kSolvent);
    dpd::FlowBc bc(open_channel_bc());
    for (int s = 0; s < 30; ++s) {
      sys.step();
      bc.apply(sys);
    }
    auto& ckpt = first ? ckpt_all : ckpt_one;
    first = false;
    ckpt = state_of(sys);
    restarted = std::make_unique<dpd::DpdSystem>(open_channel_params(),
                                                 std::make_shared<dpd::NoWalls>());
    resilience::BlobReader r(ckpt.data(), ckpt.size());
    restarted->load_state(r);
    for (int s = 0; s < 30; ++s) {
      sys.step();
      restarted->step();
    }
    EXPECT_EQ(state_of(sys), state_of(*restarted)) << "restart equals uninterrupted";
    return *restarted;
  });
  EXPECT_EQ(ckpt_all, ckpt_one);
}

namespace {

/// A halo update that is always in flight and never changes a particle:
/// every force pass defers the rows touching a ghost to finish_refresh.
class PendingHalo : public dpd::ExchangeHook {
public:
  explicit PendingHalo(bool overlap) : overlap_(overlap) {}
  void refresh(dpd::DpdSystem&) override {}
  bool overlap_pending() const override { return overlap_; }
  void finish_refresh(dpd::DpdSystem&) override { ++finished; }
  int finished = 0;

private:
  bool overlap_;
};

}  // namespace

TEST(DpdLanes, OverlappedRowsAreLaneCountInvariant) {
  // Ghosts spread over the whole index range put deferred rows in every
  // lane's share; the forces equal the blocking pass's, bit for bit.
  // `split`: repeat the pass until a helper joined one (a loaded host may
  // keep the helpers off their core for a while)
  auto forces = [](bool overlap, bool split) {
    dpd::DpdSystem src(open_channel_params(), std::make_shared<dpd::NoWalls>());
    src.fill(3.0, dpd::kSolvent);
    std::vector<dpd::ParticleRecord> recs;
    for (std::size_t i = 0; i < src.size(); ++i) {
      recs.push_back(src.particle_record(i));
      recs.back().ghost = i % 7 == 3;
    }
    dpd::DpdSystem sys(open_channel_params(), std::make_shared<dpd::NoWalls>());
    sys.reset_particles(recs);
    PendingHalo halo(overlap);
    sys.set_exchange(&halo);
    telemetry::Registry::local().clear();
    // the same state, so the same forces, every pass
    auto helped = [] {
      const auto c = telemetry::Registry::local().counters()["dpd.lanes"];
      return c.value > static_cast<double>(c.count);
    };
    std::vector<double> f;
    int passes = 0;
    for (; passes < 20 || (split && passes < 20000 && !helped()); ++passes) {
      sys.compute_forces();
      std::vector<double> g;
      for (const auto* lane : {&sys.forces().xs(), &sys.forces().ys(), &sys.forces().zs()})
        g.insert(g.end(), lane->begin(), lane->end());
      if (passes > 0) {
        EXPECT_EQ(0, std::memcmp(f.data(), g.data(), f.size() * sizeof(double)));
      }
      f = std::move(g);
    }
    EXPECT_EQ(halo.finished, overlap ? passes : 0);
    const auto counters = telemetry::Registry::local().counters();
    if (overlap) {
      EXPECT_GT(counters.at("dpd.rows.boundary").value, 0.0);
    }
    sys.set_exchange(nullptr);
    const auto lanes = counters.at("dpd.lanes");
    return std::make_pair(f, lanes.value / static_cast<double>(lanes.count));
  };
  const auto blocking = forces(false, false);
  const auto overlapped = forces(true, outside_width() >= 2);
  std::pair<std::vector<double>, double> overlapped_inline;
  on_one_lane([&] { overlapped_inline = forces(true, false); });
  if (outside_width() >= 2) {
    EXPECT_GT(overlapped.second, 1.0) << "some overlapped pass used more lanes";
  }
  EXPECT_EQ(overlapped_inline.second, 1.0);
  ASSERT_EQ(blocking.first.size(), overlapped.first.size());
  EXPECT_EQ(0, std::memcmp(blocking.first.data(), overlapped.first.data(),
                           blocking.first.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(blocking.first.data(), overlapped_inline.first.data(),
                           blocking.first.size() * sizeof(double)));
}

// ---------------- SEM passes at any lane count ----------------

namespace {

/// The bytes of some fields, end to end.
std::vector<std::uint8_t> bytes_of(std::initializer_list<const la::Vector*> fields) {
  std::vector<std::uint8_t> out;
  for (const la::Vector* f : fields) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(f->data());
    out.insert(out.end(), p, p + f->size() * sizeof(double));
  }
  return out;
}

/// What a SEM computation wrote and how many lanes its passes used.
struct SemOutcome {
  std::vector<std::uint8_t> bytes;
  double lanes = 0.0;        ///< sem.lanes: lanes summed over split passes
  std::uint64_t passes = 0;  ///< passes offered more than one lane
};

/// The computation inline and outside xmp::run: equal bytes, no pass
/// counted inline, and the outside runs split whenever the field reaches
/// the split size and the process may use a second core. The first passes
/// of a process start the helpers, a loaded host may keep them off their
/// core for a while, and a pass never waits for them: so the outside run
/// repeats at least three times, and until a helper joined one of its
/// passes, each run bitwise equal to the inline one.
template <class Fn>
void expect_sem_lane_count_invariant(std::size_t nodes, Fn&& fn, int attempts = 200) {
  auto observe = [&] {
    telemetry::Registry::local().clear();
    SemOutcome out;
    out.bytes = fn();
    const auto c = telemetry::Registry::local().counters()["sem.lanes"];
    out.lanes = c.value;
    out.passes = c.count;
    return out;
  };
  SemOutcome one;
  on_one_lane([&] { one = observe(); });
  EXPECT_EQ(one.passes, 0u) << "inline passes count nothing";
  ASSERT_FALSE(one.bytes.empty());
  const bool split = outside_width() >= 2 && nodes >= sem::kSplitNodes;
  bool helped = false;
  for (int k = 0; k < attempts && (k < 3 || (split && !helped)); ++k) {
    const SemOutcome all = observe();
    EXPECT_EQ(all.bytes, one.bytes) << "outside run " << k;
    if (!split) {
      EXPECT_EQ(all.passes, 0u);
    }
    helped = helped || all.lanes > static_cast<double>(all.passes);
  }
  if (split) {
    EXPECT_TRUE(helped) << "outside passes used more lanes";
  }
}

la::Vector wavy(std::size_t n, double phase) {
  la::Vector u(n);
  for (std::size_t g = 0; g < n; ++g) u[g] = std::sin(0.37 * static_cast<double>(g) + phase);
  return u;
}

/// Helmholtz apply, stiffness apply, gradient and two fast-diagonalisation
/// solves (Dirichlet sides, and pure-Neumann Poisson) on d.
void expect_operators_lane_count_invariant(const sem::Discretization3D& d) {
  using F = sem::HexFace;
  const std::size_t n = d.num_nodes();
  expect_sem_lane_count_invariant(n, [&] {
    sem::Operators ops(d);
    const la::Vector u = wavy(n, 0.1);
    la::Vector y, k;
    sem::Operators<sem::Discretization3D>::Fields grad;
    ops.apply_helmholtz(750.0, 0.05, u, y);
    ops.apply_stiffness(u, k);
    ops.gradient(u, grad);
    sem::HelmholtzSolver velocity(ops, 750.0, 0.05, {F::X0, F::Y0, F::Y1, F::Z0, F::Z1});
    sem::HelmholtzSolver poisson(ops, 0.0, 1.0, {});
    la::Vector bc(velocity.dirichlet_nodes().size());
    for (std::size_t i = 0; i < bc.size(); ++i) bc[i] = std::cos(0.1 * static_cast<double>(i));
    la::Vector xv, xp;
    velocity.solve_with_values(u, bc, xv);
    poisson.solve_with_values(wavy(n, 0.7), la::Vector(), xp);
    return bytes_of({&y, &k, &grad[0], &grad[1], &grad[2], &xv, &xp});
  });
}

}  // namespace

TEST(SemLanes, OperatorsAndFastDiagAreLaneCountInvariant) {
  // 7 x 3 x 5 elements at P = 4: a 29 x 13 x 21 lattice of 7,917 nodes.
  // Neither the 105 elements nor the 273 rows of axes 0 and 1 fill the
  // chunks evenly, and axis 2's 21 rows are fewer than the chunks.
  const sem::Discretization3D odd(1.4, 0.6, 1.0, 7, 3, 5, 4);
  ASSERT_GE(odd.num_nodes(), sem::kSplitNodes);
  expect_operators_lane_count_invariant(odd);
}

TEST(SemLanes, OneElementMeshIsLaneCountInvariant) {
  // one element at P = 16: 4,913 nodes in one element, 289 rows per axis
  const sem::Discretization3D one(1.0, 1.0, 1.0, 1, 1, 1, 16);
  ASSERT_EQ(one.num_elements(), 1u);
  ASSERT_GE(one.num_nodes(), sem::kSplitNodes);
  expect_operators_lane_count_invariant(one);
}

TEST(SemLanes, SmallMeshesRunInline) {
  // below the split size every pass runs inline, outside xmp::run too
  const sem::Discretization3D small(1.0, 1.0, 1.0, 2, 2, 2, 4);
  ASSERT_LT(small.num_nodes(), sem::kSplitNodes);
  expect_operators_lane_count_invariant(small);
}

TEST(SemLanes, NavierStokes3dIsLaneCountInvariant) {
  // cdc3d_sem's mesh and scheme: 8 x 2 x 4 elements, P = 6, time_order 2
  using F = sem::HexFace;
  const sem::Discretization3D d(4.0, 1.0, 1.0, 8, 2, 4, 6);
  expect_sem_lane_count_invariant(d.num_nodes(), [&] {
    sem::NavierStokes3D::Params prm;
    prm.nu = 0.05;
    prm.dt = 0.002;
    prm.time_order = 2;
    sem::NavierStokes3D ns(d, prm);
    auto inflow = [](double, double y, double z, double) {
      return 16.0 * y * (1 - y) * z * (1 - z);
    };
    auto zero = [](double, double, double, double) { return 0.0; };
    ns.set_velocity_bc(F::X0, inflow, zero, zero);
    ns.set_natural_bc(F::X1);
    for (int s = 0; s < 4; ++s) ns.step();
    resilience::BlobWriter w;
    ns.save_state(w);
    std::vector<std::uint8_t> out = bytes_of({&ns.u(), &ns.v(), &ns.w(), &ns.p()});
    const std::vector<std::uint8_t> state = w.take();
    out.insert(out.end(), state.begin(), state.end());
    return out;
  }, 20);
}

TEST(SemLanes, Cdc3dRunnerDigestIsLaneCountInvariant) {
  // two coupling intervals of the cdc3d_sem benchmark workload: SEM passes,
  // FlowBc's continuum reads and the DPD force passes all on lanes, or all
  // inline
  scenario::Scenario sc =
      scenario::load_scenario_file(NEKTARG_SOURCE_DIR "/bench/e2e/workloads/cdc3d_sem.json");
  sc.time.intervals = 2;
  sc.time.develop_steps = 4;
  sc.checkpoint.every = 0;
  const auto& m = sc.mesh3d;
  const auto nodes = static_cast<std::size_t>((m.nx * m.order + 1) * (m.ny * m.order + 1) *
                                              (m.nz * m.order + 1));
  ASSERT_EQ(nodes, 15925u);
  expect_sem_lane_count_invariant(nodes, [&] {
    const std::uint32_t digest = scenario::Runner(sc).run().digest;
    std::vector<std::uint8_t> out(sizeof digest);
    std::memcpy(out.data(), &digest, sizeof digest);
    return out;
  }, 10);
}
