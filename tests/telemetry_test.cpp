// Tests for the telemetry subsystem: phase timer nesting and aggregation,
// counters/series, cross-rank report reduction over an xmp communicator, the
// bench JSON emitter, and — the centrepiece — an analytic communication
// matrix for the paper's 3-step interface exchange (gather to the L4 root,
// one root-to-root message over World, scatter to the peers) whose per-cell
// message and byte counts are known exactly.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "coupling/cdc.hpp"
#include "coupling/mci.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "sem/navier_stokes.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/comm_matrix.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/report.hpp"
#include "xmp/comm.hpp"

namespace {

void spin_for_us(int us) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < std::chrono::microseconds(us)) {
  }
}

}  // namespace

TEST(TelemetryRegistry, PhasesNestIntoTree) {
  telemetry::Registry::reset_all();
  {
    telemetry::ScopedPhase step("step");
    spin_for_us(200);
    {
      telemetry::ScopedPhase solve("solve");
      spin_for_us(200);
      { telemetry::ScopedPhase inner("cg"); spin_for_us(200); }
      { telemetry::ScopedPhase inner("cg"); spin_for_us(200); }
    }
  }
  { telemetry::ScopedPhase step("step"); spin_for_us(200); }

  const auto root = telemetry::Registry::local().phases();
  ASSERT_EQ(root.children.size(), 1u);
  const auto& step = root.children[0];
  EXPECT_EQ(step.name, "step");
  EXPECT_EQ(step.count, 2u);  // same name re-entered at the same level merges
  const auto* solve = step.find("solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->count, 1u);
  const auto* cg = solve->find("cg");
  ASSERT_NE(cg, nullptr);
  EXPECT_EQ(cg->count, 2u);
  EXPECT_EQ(solve->find("nope"), nullptr);

  // inclusive times nest: parent >= sum of children, exclusive >= 0
  EXPECT_GE(step.seconds, solve->seconds);
  EXPECT_GE(solve->seconds, cg->seconds);
  EXPECT_GE(solve->exclusive_seconds(), 0.0);
  EXPECT_NEAR(solve->child_seconds(), cg->seconds, 1e-12);
  EXPECT_GT(cg->seconds, 0.0);
}

namespace {

// The SEM phase tree docs/TELEMETRY.md documents: a Navier-Stokes step
// nests its pressure solve as <ns>.step/<ns>.pressure/helmholtz.solve/cg.solve,
// and every dimension counts its operator sweeps under one name.
void expect_sem_phase_path(const std::string& ns) {
  const auto root = telemetry::Registry::local().phases();
  const telemetry::PhaseNode* node = &root;
  const std::string path[] = {ns + ".step", ns + ".pressure", "helmholtz.solve", "cg.solve"};
  for (const std::string& name : path) {
    node = node->find(name);
    ASSERT_NE(node, nullptr) << "no phase " << name << " on the " << ns << " path";
  }
  const auto counters = telemetry::Registry::local().counters();
  for (const char* name : {"helmholtz.solves", "sem.apply.helmholtz"}) {
    ASSERT_TRUE(counters.count(name)) << ns << ": no counter " << name;
    EXPECT_GT(counters.at(name).value, 0.0) << ns << ": " << name;
  }
}

}  // namespace

TEST(TelemetryRegistry, NavierStokesStepsNestHelmholtzAndCg) {
  telemetry::Registry::reset_all();
  sem::Discretization d2(mesh::QuadMesh::channel(1.0, 1.0, 2, 2), 3);
  sem::NavierStokes<sem::Discretization> ns2(d2, {});
  ns2.step();
  expect_sem_phase_path("ns2d");

  telemetry::Registry::reset_all();
  sem::Discretization3D d3(1.0, 1.0, 1.0, 2, 2, 2, 3);
  sem::NavierStokes<sem::Discretization3D> ns3(d3, {});
  ns3.step();
  expect_sem_phase_path("ns3d");
}

TEST(TelemetryRegistry, FlowBcApplyNestsDeleteRelaxInsert) {
  // a short coupled run: every DPD step applies the open boundary once
  telemetry::Registry::reset_all();
  sem::Discretization d(mesh::QuadMesh::channel(4.0, 1.0, 8, 2), 4);
  sem::NavierStokes<sem::Discretization> ns(d, {});
  dpd::DpdParams dp;
  dp.box = {8.0, 4.0, 6.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(6.0));
  sys.fill(3.0, dpd::kSolvent, 13, 0.1);
  dpd::FlowBc bc(dpd::FlowBcParams{});
  coupling::ScaleMap scales;
  scales.L_dpd = 6.0;
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 1;
  tp.dpd_per_ns = 3;
  const coupling::EmbeddedRegion region{1.5, 2.5, 0.0, 1.0};
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, region, scales, tp);
  cdc.advance_interval({});

  const auto root = telemetry::Registry::local().phases();
  const telemetry::PhaseNode* apply = root.find("flowbc.apply");
  ASSERT_NE(apply, nullptr);
  EXPECT_EQ(apply->count, 3u);
  for (const char* name : {"flowbc.delete", "flowbc.relax", "flowbc.insert"}) {
    const telemetry::PhaseNode* child = apply->find(name);
    ASSERT_NE(child, nullptr) << "no phase flowbc.apply/" << name;
    EXPECT_EQ(child->count, 3u) << name;
    EXPECT_GT(child->seconds, 0.0) << name;
  }
}

TEST(TelemetryRegistry, UnmatchedPhaseEndThrows) {
  telemetry::Registry::reset_all();
  EXPECT_THROW(telemetry::Registry::local().phase_end(), std::logic_error);
}

TEST(TelemetryRegistry, CountersAndSeriesAccumulate) {
  telemetry::Registry::reset_all();
  telemetry::count("iters", 3.0);
  telemetry::count("iters", 4.0);
  telemetry::count("solves");
  telemetry::sample("residual", 1.0);
  telemetry::sample("residual", 0.25);
  telemetry::sample_reset("residual");
  telemetry::sample("residual", 0.5);

  const auto counters = telemetry::Registry::local().counters();
  ASSERT_TRUE(counters.count("iters"));
  EXPECT_DOUBLE_EQ(counters.at("iters").value, 7.0);
  EXPECT_EQ(counters.at("iters").count, 2u);
  EXPECT_DOUBLE_EQ(counters.at("solves").value, 1.0);

  const auto series = telemetry::Registry::local().series();
  ASSERT_TRUE(series.count("residual"));
  ASSERT_EQ(series.at("residual").size(), 1u);
  EXPECT_DOUBLE_EQ(series.at("residual")[0], 0.5);
}

TEST(TelemetryRegistry, DisabledHelpersAreNoOps) {
  telemetry::Registry::reset_all();
  telemetry::set_enabled(false);
  {
    telemetry::ScopedPhase p("ghost");
    telemetry::count("ghost");
    telemetry::sample("ghost", 1.0);
  }
  telemetry::set_enabled(true);
  EXPECT_TRUE(telemetry::Registry::local().phases().children.empty());
  EXPECT_TRUE(telemetry::Registry::local().counters().empty());
}

TEST(TelemetryReport, SerialAggregationMergesRanks) {
  auto r0 = std::make_shared<telemetry::Registry>();
  auto r1 = std::make_shared<telemetry::Registry>();
  for (auto& r : {r0, r1}) {
    r->phase_begin("step");
    r->phase_begin("solve");
    r->phase_end();
    r->phase_end();
    r->counter_add("iters", 10.0);
  }
  r1->phase_begin("step");
  r1->phase_end();
  r1->counter_add("iters", 20.0);

  const auto rep = telemetry::aggregate({r0, r1});
  ASSERT_EQ(rep.phases.size(), 2u);  // step, step/solve (pre-order)
  EXPECT_EQ(rep.phases[0].path, "step");
  EXPECT_EQ(rep.phases[0].depth, 0);
  EXPECT_EQ(rep.phases[0].ranks, 2);
  EXPECT_EQ(rep.phases[0].count, 3u);  // 1 + 2 entries
  EXPECT_EQ(rep.phases[1].path, "step/solve");
  EXPECT_EQ(rep.phases[1].depth, 1);
  EXPECT_GE(rep.phases[0].max_s, rep.phases[0].min_s);

  ASSERT_EQ(rep.counters.size(), 1u);
  EXPECT_EQ(rep.counters[0].name, "iters");
  EXPECT_DOUBLE_EQ(rep.counters[0].total, 40.0);
  EXPECT_DOUBLE_EQ(rep.counters[0].min, 10.0);
  EXPECT_DOUBLE_EQ(rep.counters[0].max, 30.0);

  const auto text = telemetry::format(rep);
  EXPECT_NE(text.find("step"), std::string::npos);
  EXPECT_NE(text.find("solve"), std::string::npos);
  EXPECT_NE(text.find("iters"), std::string::npos);
}

TEST(TelemetryReport, CrossRankAggregationOverComm) {
  telemetry::Registry::reset_all();
  telemetry::Report rep;
  xmp::run(4, [&](xmp::Comm& world) {
    telemetry::Registry::local().bind_world_rank(world.rank());
    telemetry::Registry::local().clear();
    // Rank 3 is the deliberate straggler, enforced by barrier ordering (not
    // by sleeping, which is flaky under load): its "step" opens before the
    // first barrier and closes after the second, so it strictly contains
    // every other rank's "step".
    if (world.rank() == 3) {
      telemetry::ScopedPhase step("step");
      { telemetry::ScopedPhase solve("solve"); spin_for_us(100); }
      world.barrier();
      world.barrier();
    } else {
      world.barrier();
      {
        telemetry::ScopedPhase step("step");
        spin_for_us(100);
        if (world.rank() != 2) {
          telemetry::ScopedPhase solve("solve");
          spin_for_us(100);
        }
      }
      world.barrier();
    }
    telemetry::count("iters", static_cast<double>(world.rank()));
    auto r = telemetry::aggregate(world, 0);
    if (world.rank() == 0) rep = std::move(r);
  });

  ASSERT_EQ(rep.phases.size(), 2u);
  EXPECT_EQ(rep.phases[0].path, "step");
  EXPECT_EQ(rep.phases[0].ranks, 4);
  EXPECT_EQ(rep.phases[0].count, 4u);
  EXPECT_EQ(rep.phases[0].max_rank, 3);
  EXPECT_GT(rep.phases[0].max_s, rep.phases[0].min_s);
  EXPECT_GE(rep.phases[0].avg_s, rep.phases[0].min_s);
  EXPECT_LE(rep.phases[0].avg_s, rep.phases[0].max_s);
  EXPECT_EQ(rep.phases[1].path, "step/solve");
  EXPECT_EQ(rep.phases[1].ranks, 3);  // rank 2 never entered it

  ASSERT_EQ(rep.counters.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.counters[0].total, 0.0 + 1.0 + 2.0 + 3.0);
}

TEST(TelemetryBenchReport, JsonCarriesMetaAndRows) {
  telemetry::BenchReport rep("unit");
  rep.meta("machine", std::string("BG/P"));
  rep.meta("cores", 1024.0);
  rep.row();
  rep.set("x", 1.5);
  rep.set("label", std::string("a\"b"));
  rep.row();
  rep.set("x", 2.0);
  const auto js = rep.to_json();
  EXPECT_NE(js.find("\"schema\":\"nektarg-bench-v1\""), std::string::npos);
  EXPECT_NE(js.find("\"name\":\"unit\""), std::string::npos);
  EXPECT_NE(js.find("\"machine\":\"BG/P\""), std::string::npos);
  EXPECT_NE(js.find("\"cores\":1024"), std::string::npos);
  EXPECT_NE(js.find("\"x\":1.5"), std::string::npos);
  EXPECT_NE(js.find("a\\\"b"), std::string::npos);  // escaping
  EXPECT_EQ(rep.row_count(), 2u);
}

TEST(TelemetryChromeTrace, EmitsTimelineEvents) {
  telemetry::Registry::reset_all();
  telemetry::Registry::local().set_timeline_enabled(true);
  {
    telemetry::ScopedPhase a("outer");
    telemetry::ScopedPhase b("inner");
    spin_for_us(100);
  }
  telemetry::Registry::local().set_timeline_enabled(false);
  const auto js = telemetry::chrome_trace_json();
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("\"outer\""), std::string::npos);
  EXPECT_NE(js.find("\"inner\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
  const auto tl = telemetry::Registry::local().timeline();
  ASSERT_EQ(tl.size(), 2u);  // closed in order: inner first
  EXPECT_EQ(tl[0].name, "inner");
  EXPECT_EQ(tl[0].depth, 1);
  EXPECT_EQ(tl[1].name, "outer");
  EXPECT_EQ(tl[1].depth, 0);
}

TEST(TelemetryCommMatrix, TagClassesClassify) {
  telemetry::TagClasses tc;
  tc.add_range(9001, 9002, "mci.discovery");
  tc.add(42, "mci.exchange");
  EXPECT_EQ(tc.classify({0, 1, 8, 42, xmp::TraceKind::P2P}), "mci.exchange");
  EXPECT_EQ(tc.classify({0, 1, 8, 9002, xmp::TraceKind::P2P}), "mci.discovery");
  EXPECT_EQ(tc.classify({0, 1, 8, 7, xmp::TraceKind::P2P}), "tag:7");
  // collectives classify by kind regardless of tag
  EXPECT_EQ(tc.classify({0, 1, 8, xmp::kCollectiveTag, xmp::TraceKind::Gather}), "gather");
  EXPECT_EQ(tc.classify({0, 1, 8, xmp::kCollectiveTag, xmp::TraceKind::Scatter}), "scatter");
}

TEST(TelemetryCommMatrix, AnalyticThreeStepExchange) {
  // 6 ranks, two interface (L4) groups of 3: world {0,1,2} with root 0 and
  // {3,4,5} with root 3. Each rank owns 2 of the 6 interface samples. One
  // full bidirectional exchange (both sides send then recv) must produce
  // exactly the paper's 3-step pattern — nothing more:
  //   step 1  gather:  (1->0) (2->0) (4->3) (5->3)   2 doubles = 16 B each
  //   step 2  p2p:     (0->3) (3->0)  tag 42          6 doubles = 48 B each
  //   step 3  scatter: (0->1) (0->2) (3->4) (3->5)    2 doubles = 16 B each
  telemetry::TagClasses tc;
  tc.add(42, "mci.exchange");
  telemetry::CommMatrix matrix(std::move(tc));

  xmp::run(
      6,
      [&](xmp::Comm& world) {
        coupling::MciConfig cfg;
        cfg.rack_of.assign(6, 0);
        cfg.task_of = {0, 0, 0, 1, 1, 1};
        auto mci = coupling::build_mci(world, cfg);
        xmp::Comm l4 = coupling::derive_l4(mci.l3, true);
        const int peer_root = mci.task == 0 ? 3 : 0;
        std::vector<std::size_t> mine = {static_cast<std::size_t>(l4.rank()),
                                         static_cast<std::size_t>(l4.rank() + 3)};
        coupling::InterfaceChannel ch(world, l4, peer_root, 6, mine, 42);
        // Drop the construction-time traffic (the sample-index gather) so the
        // matrix holds the steady-state exchange only. The double barrier
        // brackets the reset: every other rank is parked in an untraced
        // barrier while rank 0 clears the cells.
        world.barrier();
        if (world.rank() == 0) matrix.reset();
        world.barrier();
        std::vector<double> vals(2, 1.0 + world.rank());
        ch.send(vals);
        auto got = ch.recv();
        EXPECT_EQ(got.size(), 2u);
        world.barrier();
      },
      matrix.sink());

  const auto cells = matrix.cells();
  using Key = telemetry::CommKey;
  auto expect_cell = [&](int src, int dst, const std::string& cls,
                         std::uint64_t msgs, std::uint64_t bytes) {
    auto it = cells.find(Key{src, dst, cls});
    ASSERT_NE(it, cells.end()) << src << "->" << dst << " [" << cls << "] missing";
    EXPECT_EQ(it->second.messages, msgs) << src << "->" << dst << " [" << cls << "]";
    EXPECT_EQ(it->second.bytes, bytes) << src << "->" << dst << " [" << cls << "]";
  };

  // step 1: fan-in to the L4 roots
  expect_cell(1, 0, "gather", 1, 16);
  expect_cell(2, 0, "gather", 1, 16);
  expect_cell(4, 3, "gather", 1, 16);
  expect_cell(5, 3, "gather", 1, 16);
  // step 2: exactly one payload per direction over World
  expect_cell(0, 3, "mci.exchange", 1, 48);
  expect_cell(3, 0, "mci.exchange", 1, 48);
  // step 3: fan-out from the L4 roots
  expect_cell(0, 1, "scatter", 1, 16);
  expect_cell(0, 2, "scatter", 1, 16);
  expect_cell(3, 4, "scatter", 1, 16);
  expect_cell(3, 5, "scatter", 1, 16);

  ASSERT_EQ(cells.size(), 10u) << matrix.format();
  EXPECT_EQ(matrix.total_messages(), 10u);
  EXPECT_EQ(matrix.total_bytes(), 4u * 16 + 2u * 48 + 4u * 16);

  const auto js = matrix.to_json();
  EXPECT_NE(js.find("\"mci.exchange\""), std::string::npos);
  EXPECT_NE(js.find("\"total_messages\":10"), std::string::npos);
}

TEST(TelemetryRegistry, FiberRanksSharingOneWorkerDoNotCrossContaminate) {
  // Two fiber ranks multiplexed on a single worker thread: every barrier
  // parks one rank and dispatches the other on the SAME OS thread, so any
  // thread-keyed attribution would mix their counters and phase trees. The
  // registry must resolve through the scheduler's rank context instead.
  telemetry::Registry::reset_all();
  xmp::SchedOptions sched;
  sched.workers = 1;
  std::map<std::string, telemetry::CounterValue> counters[2];
  telemetry::PhaseNode phases[2];
  xmp::run(
      2,
      [&](xmp::Comm& world) {
        const int r = world.rank();
        telemetry::Registry::local().bind_world_rank(r);
        for (int i = 0; i < 10; ++i) {
          telemetry::ScopedPhase step(r == 0 ? "rank0_step" : "rank1_step");
          telemetry::Registry::local().counter_add("mine", r == 0 ? 1.0 : 100.0);
          world.barrier();  // yield mid-phase: the other rank runs on this thread
        }
        counters[r] = telemetry::Registry::local().counters();
        phases[r] = telemetry::Registry::local().phases();
      },
      nullptr, xmp::CheckOptions{}, sched);

  EXPECT_DOUBLE_EQ(counters[0]["mine"].value, 10.0);
  EXPECT_EQ(counters[0]["mine"].count, 10u);
  EXPECT_DOUBLE_EQ(counters[1]["mine"].value, 1000.0);
  EXPECT_EQ(counters[1]["mine"].count, 10u);
  // each rank's phase tree holds only its own phase, entered 10 times
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(phases[r].children.size(), 1u) << "rank " << r;
    EXPECT_EQ(phases[r].children[0].name, r == 0 ? "rank0_step" : "rank1_step");
    EXPECT_EQ(phases[r].children[0].count, 10u);
  }
}

// ---------------- JSON emitter hygiene ----------------
// Telemetry JSON ends up in external consumers (Chrome tracing, CI parsers):
// control characters must be escaped and non-finite doubles must not produce
// bare NaN/Inf tokens, which are not JSON.

TEST(TelemetryJson, EscapesControlCharacters) {
  telemetry::JsonWriter w;
  w.value(std::string("a\"b\\c\nd\te\rf\bg\fh\x01i"));
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\\u0001i\"");
}

TEST(TelemetryJson, EscapesHighControlAndKeepsUtf8Bytes) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key(std::string("k\x1f"));
  w.value(std::string("caf\xc3\xa9"));  // UTF-8 bytes pass through untouched
  w.end_object();
  EXPECT_EQ(w.str(), "{\"k\\u001f\":\"caf\xc3\xa9\"}");
}

TEST(TelemetryJson, NonFiniteDoublesAreNull) {
  telemetry::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(TelemetryJson, DoublesBeyondInt64RangeAreWrittenAsDoubles) {
  // +-1e19 lie outside std::int64_t: the writer must test the range before
  // casting (the cast alone is undefined behaviour, which a
  // float-cast-overflow build reports). Integral values in range keep
  // their integer spelling.
  telemetry::JsonWriter w;
  w.begin_array();
  w.value(1e19);
  w.value(-1e19);
  w.value(42.0);
  w.value(-7.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[1e+19,-1e+19,42,-7]");
}
