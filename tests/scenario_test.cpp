// Scenario subsystem tests: JSON parse/dump fixed point, strict schema
// diagnostics (unknown keys / type mismatches with a "$." path), bitwise
// re-emit of the checked-in scenario files, Runner-vs-handwritten STATE_DIGEST
// equivalence for the quickstart and coupled3d stacks, ensemble sweep
// expansion, warm-start-vs-cold physical equivalence, and one-variant-killed
// fault isolation.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "coupling/cdc.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "io/json_escape.hpp"
#include "la/simd.hpp"
#include "mesh/quadmesh.hpp"
#include "resilience/fault.hpp"
#include "resilience/snapshot.hpp"
#include "scenario/ensemble.hpp"
#include "scenario/json.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "scenario/schema.hpp"
#include "sem/navier_stokes.hpp"

namespace {

using scenario::Json;
using scenario::JsonError;
using scenario::Runner;
using scenario::RunnerOptions;
using scenario::Scenario;
using scenario::WarmMode;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- JSON value type -------------------------------------------------------

TEST(JsonTest, ParseDumpFixedPoint) {
  const char* text = R"({
    "name": "x",
    "flag": true,
    "nothing": null,
    "nums": [1, 2.5, -3e-2, 1e15],
    "nested": {"a": [], "b": {}}
  })";
  const Json doc = Json::parse(text);
  const std::string once = doc.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);  // fixed point, bitwise
  EXPECT_EQ(Json::parse(once), doc);
}

TEST(JsonTest, StrictParseErrors) {
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), JsonError);       // trailing comma
  EXPECT_THROW(Json::parse("{\"a\": 1} x"), JsonError);      // trailing garbage
  EXPECT_THROW(Json::parse("{\"a\": 1, \"a\": 2}"), JsonError);  // dup key
  try {
    Json::parse("{\n  \"a\": @\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(JsonTest, EscapingRoundTrip) {
  // Control characters, the mandatory escapes and raw UTF-8 multibyte
  // sequences must all survive dump -> parse byte-for-byte.
  const std::string nasty =
      std::string("quote\" back\\slash\nnew\ttab\rret\x01\x1f ") + "\xce\xbc-velocity \xe8\xa1\x80";
  Json doc = Json::object();
  doc.set("s", Json(nasty));
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("\\u001f"), std::string::npos);
  EXPECT_NE(text.find("\xce\xbc"), std::string::npos);  // UTF-8 passes through
  const Json back = Json::parse(text);
  EXPECT_EQ(back.find("s")->as_string(), nasty);
  EXPECT_EQ(Json::parse(back.dump()).dump(), back.dump());
}

TEST(JsonTest, SharedEscapeHelperMatchesDump) {
  // The scenario serializer and telemetry share io::json_string_literal; the
  // DOM dump of a bare string must be exactly that literal.
  const std::string s = "a\"b\\c\nd\x02 \xc3\xa9";
  EXPECT_EQ(Json(s).dump(), io::json_string_literal(s) + "\n");
}

TEST(JsonTest, PathHelpers) {
  Json doc = Json::parse(R"({"a": {"b": {"c": 3}}})");
  ASSERT_NE(scenario::find_path(doc, "a.b.c"), nullptr);
  EXPECT_EQ(scenario::find_path(doc, "a.b.c")->as_number(), 3.0);
  EXPECT_EQ(scenario::find_path(doc, "a.x.c"), nullptr);
  scenario::require_path(doc, "a.b.c") = Json(4.0);
  EXPECT_EQ(scenario::find_path(doc, "a.b.c")->as_number(), 4.0);
  EXPECT_THROW(scenario::require_path(doc, "a.b.zzz"), JsonError);
}

// --- schema: diagnostics ---------------------------------------------------

TEST(SchemaTest, UnknownKeyCarriesJsonPath) {
  Json doc = Json::parse(scenario::scenario_to_json(scenario::quickstart_preset()));
  doc.find("sem")->set("nux", Json(1.0));
  try {
    scenario::parse_scenario(doc);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("$.sem.nux"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("known keys"), std::string::npos) << msg;
  }
}

TEST(SchemaTest, TypeMismatchCarriesJsonPath) {
  Json doc = Json::parse(scenario::scenario_to_json(scenario::quickstart_preset()));
  *doc.find("sem")->find("nu") = Json("thick");
  try {
    scenario::parse_scenario(doc);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("$.sem.nu"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected number, got string"), std::string::npos) << msg;
  }
}

TEST(SchemaTest, SemanticValidation) {
  Scenario sc = scenario::quickstart_preset();
  sc.sem.time_order = 3;
  EXPECT_THROW(scenario::validate_scenario(sc), JsonError);
  sc = scenario::quickstart_preset();
  sc.mesh.nx = 0;
  EXPECT_THROW(scenario::validate_scenario(sc), JsonError);
  sc = scenario::quickstart_preset();
  sc.coupling.region = {2.5, 1.5, 0.0, 1.0};  // max < min
  EXPECT_THROW(scenario::validate_scenario(sc), JsonError);
}

TEST(SchemaTest, VersionAndKindAreChecked) {
  Json doc = Json::parse(scenario::scenario_to_json(scenario::quickstart_preset()));
  *doc.find("version") = Json(static_cast<std::int64_t>(99));
  EXPECT_THROW(scenario::parse_scenario(doc), JsonError);

  doc = Json::parse(R"({"version": 1, "kind": "mci"})");
  try {
    scenario::parse_scenario(doc);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("reserved"), std::string::npos) << e.what();
  }

  doc = Json::parse(R"({"version": 1, "kind": "warp"})");
  EXPECT_THROW(scenario::parse_scenario(doc), JsonError);
}

TEST(SchemaTest, LoadScenarioFilePrefixesPath) {
  try {
    scenario::load_scenario_file("/nonexistent/sc.json");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/sc.json"), std::string::npos);
  }
}

// --- schema: bitwise re-emit ----------------------------------------------

Scenario tiny_net1d() {
  Scenario sc;
  sc.name = "bifurcation";
  sc.kind = "net1d";
  scenario::VesselSpec parent;
  parent.length = 2.0;
  parent.elements = 4;
  parent.order = 3;
  scenario::VesselSpec child = parent;
  child.length = 1.5;
  child.A0 = 0.3;
  sc.network.vessels = {parent, child, child};
  sc.network.junctions = {{{0, "right"}, {1, "left"}, {2, "left"}}};
  sc.network.inlets = {{0, 5.0, 1.0, 2.0}};
  sc.network.outlets = {{1, 100.0, 1000.0, 1e-4}, {2, 100.0, 1000.0, 1e-4}};
  sc.network.steps_per_interval = 5;
  sc.time.intervals = 3;
  return sc;
}

TEST(SchemaTest, BitwiseReEmit) {
  for (const Scenario& sc :
       {scenario::quickstart_preset(), scenario::coupled3d_preset(), tiny_net1d()}) {
    const std::string text = scenario::scenario_to_json(sc);
    const Scenario back = scenario::parse_scenario_text(text);
    EXPECT_EQ(scenario::scenario_to_json(back), text) << sc.name;
  }
}

TEST(SchemaTest, CheckedInFilesMatchPresets) {
  const std::string root = NEKTARG_SOURCE_DIR;
  EXPECT_EQ(slurp(root + "/examples/scenarios/quickstart.json"),
            scenario::scenario_to_json(scenario::quickstart_preset()));
  EXPECT_EQ(slurp(root + "/examples/scenarios/coupled3d.json"),
            scenario::scenario_to_json(scenario::coupled3d_preset()));
}

// --- Runner vs the handwritten examples -----------------------------------
//
// These replicate the pre-scenario examples/quickstart.cpp and coupled3d.cpp
// main loops verbatim (reduced interval/develop counts) and demand bitwise
// STATE_DIGEST equality with a Runner built from the matching preset.

std::uint32_t handwritten_quickstart_digest(int intervals, int develop) {
  auto mesh = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization disc(mesh, 4);
  sem::NavierStokes<sem::Operators>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Operators> ns(disc, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < develop; ++s) ns.step();

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 7, 0.1);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);

  coupling::ScaleMap scales;
  scales.L_ns = 1.0;
  scales.L_dpd = 10.0;
  scales.nu_ns = nsp.nu;
  scales.nu_dpd = 2.5;
  coupling::TimeProgression tp;
  tp.dt_ns = nsp.dt;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 10;
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, {1.5, 2.5, 0.0, 1.0}, scales, tp);
  dpd::SamplerParams sp;
  sp.nx = 1;
  sp.ny = 1;
  sp.nz = 10;
  dpd::FieldSampler sampler(sys, sp);

  for (int interval = 0; interval < intervals; ++interval)
    cdc.advance_interval([&] {
      if (interval >= 12) sampler.accumulate(sys);
    });

  resilience::BlobWriter w;
  ns.save_state(w);
  sys.save_state(w);
  bc.save_state(w);
  cdc.save_state(w);
  sampler.save_state(w);
  return resilience::crc32(w.data());
}

std::uint32_t handwritten_coupled3d_digest(int intervals, int develop) {
  const double H = 1.0, Umax = 1.0, nu = 0.05;
  sem::Discretization3D d(4.0, 1.0, H, 4, 1, 2, 4);
  sem::NavierStokes<sem::Operators3D>::Params prm;
  prm.nu = nu;
  prm.dt = 2e-3;
  prm.time_order = 2;
  prm.pressure_dirichlet_faces = {sem::HexFace::X1};
  sem::NavierStokes<sem::Operators3D> ns(d, prm);
  auto prof = [&](double, double, double z, double) {
    return 4.0 * Umax * z * (H - z) / (H * H);
  };
  auto zero = [](double, double, double, double) { return 0.0; };
  ns.set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y0, prof, zero, zero);
  ns.set_velocity_bc(sem::HexFace::Y1, prof, zero, zero);
  ns.set_natural_bc(sem::HexFace::X1);
  for (int s = 0; s < develop; ++s) ns.step();

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 7, 0.1);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);

  coupling::ScaleMap scales;
  scales.L_ns = H;
  scales.L_dpd = 10.0;
  scales.nu_ns = nu;
  scales.nu_dpd = 2.5;
  coupling::TimeProgression tp;
  tp.dt_ns = prm.dt;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 10;
  coupling::EmbeddedBox box{1.5, 2.5, 0.25, 0.75, 0.0, 1.0};
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, box, scales, tp);
  dpd::SamplerParams sp;
  sp.nx = 1;
  sp.ny = 1;
  sp.nz = 10;
  dpd::FieldSampler sampler(sys, sp);

  for (int interval = 0; interval < intervals; ++interval)
    cdc.advance_interval([&] {
      if (interval >= 15) sampler.accumulate(sys);
    });

  resilience::BlobWriter w;
  ns.save_state(w);
  sys.save_state(w);
  bc.save_state(w);
  cdc.save_state(w);
  sampler.save_state(w);
  return resilience::crc32(w.data());
}

TEST(RunnerTest, QuickstartDigestMatchesHandwritten) {
  Scenario sc = scenario::quickstart_preset();
  sc.time.develop_steps = 80;
  sc.time.intervals = 4;
  const auto res = Runner(sc).run();
  EXPECT_EQ(res.digest, handwritten_quickstart_digest(4, 80));
  EXPECT_EQ(res.intervals_run, 4u);
  EXPECT_EQ(res.develop_steps, 80u);
  EXPECT_GT(res.cg_iters, 0u);
}

TEST(RunnerTest, Coupled3dDigestMatchesHandwritten) {
  Scenario sc = scenario::coupled3d_preset();
  sc.time.develop_steps = 40;
  sc.time.intervals = 3;
  const auto res = Runner(sc).run();
  EXPECT_EQ(res.digest, handwritten_coupled3d_digest(3, 40));
}

// The absolute STATE_DIGESTs of the two example presets at their CI interval
// counts. Every relational gate (restart, scenario file vs preset) would
// still pass if a refactor shifted both sides; these literals would not.
// The scalar kernels sum in a different order, so the pins hold on AVX2 only.
TEST(Scenario, PresetDigestsArePinned) {
  if (la::simd::detect() != la::simd::Isa::Avx2) GTEST_SKIP() << "digests pinned on AVX2";
  RunnerOptions q;
  q.intervals = 12;
  EXPECT_EQ(Runner(scenario::quickstart_preset(), q).run().digest, 0xbd696f32u);
  RunnerOptions c;
  c.intervals = 8;
  EXPECT_EQ(Runner(scenario::coupled3d_preset(), c).run().digest, 0xcd1fbf0du);
}

TEST(RunnerTest, Net1dDeterministicDigest) {
  const Scenario sc = tiny_net1d();
  const auto a = Runner(sc).run();
  const auto b = Runner(sc).run();
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(RunnerTest, SharedTablesReuseDiscretization) {
  scenario::SharedTables tables;
  Scenario sc = scenario::quickstart_preset();
  sc.time.develop_steps = 2;
  sc.time.intervals = 0;
  const auto a = Runner(sc, {}, &tables).run();
  const auto b = Runner(sc, {}, &tables).run();
  EXPECT_EQ(a.digest, b.digest);  // sharing tables must not change results
  EXPECT_EQ(tables.misses(), 1u);
  EXPECT_EQ(tables.hits(), 1u);
}

// --- warm starts -----------------------------------------------------------

TEST(RunnerTest, MismatchedWarmBlobIsIgnored) {
  Scenario donor_sc = scenario::quickstart_preset();
  donor_sc.time.develop_steps = 5;
  donor_sc.time.intervals = 0;
  Runner donor(donor_sc);
  donor.run();
  const auto blob = donor.warm_state();

  Scenario other = donor_sc;
  other.sem.nu = 0.06;  // different signature: donor state must not transfer
  Runner r(other);
  r.set_warm_start(WarmMode::State, blob);
  r.run();
  EXPECT_FALSE(r.warm_applied());

  Runner same(donor_sc);
  same.set_warm_start(WarmMode::State, blob);
  same.run();
  EXPECT_TRUE(same.warm_applied());
}

TEST(RunnerTest, WarmVsColdEquivalentAtSolverTolerance) {
  // A tolerance-terminated develop phase must land on the same developed flow
  // whether it starts from rest (cold) or from a donor parameter point
  // (warm), only faster. The continuum is one-way coupled, so its profile is
  // a deterministic function of the developed state.
  Scenario base = scenario::quickstart_preset();
  base.time.intervals = 2;
  base.time.develop_steps = 3000;
  // The per-step delta floors near 2e-10 (CG tolerance noise); 3e-8 is
  // reachable in ~1500 steps from rest.
  base.time.develop_tol = 3e-8;
  base.time.sample_from = 0;

  Runner donor(base);
  donor.run();
  const auto blob = donor.warm_state();

  Scenario target = base;
  target.sem.inlet_umax = 1.05;
  Runner cold(target);
  const auto rc = cold.run();
  Runner warm(target);
  warm.set_warm_start(WarmMode::State, blob);
  const auto rw = warm.run();

  EXPECT_TRUE(warm.warm_applied());
  EXPECT_LT(rw.develop_steps, rc.develop_steps);  // the whole point
  EXPECT_LT(rw.cg_iters, rc.cg_iters);
  for (double y : {0.1, 0.25, 0.5, 0.75, 0.9})
    EXPECT_NEAR(warm.eval_u(2.0, y), cold.eval_u(2.0, y), 5e-5) << "y = " << y;
}

// --- ensemble --------------------------------------------------------------

Json ensemble_base_doc() {
  Scenario sc = scenario::quickstart_preset();
  sc.time.intervals = 2;
  sc.time.develop_steps = 30;
  sc.time.sample_from = 0;
  return Json::parse(scenario::scenario_to_json(sc));
}

scenario::SweepSpec umax_sweep(std::initializer_list<double> values) {
  scenario::SweepSpec sweep;
  scenario::SweepAxis axis;
  axis.path = "sem.inlet_umax";
  for (double v : values) axis.values.push_back(Json(v));
  sweep.axes.push_back(axis);
  return sweep;
}

TEST(EnsembleTest, SweepSpecParseIsStrict) {
  const auto spec = scenario::SweepSpec::parse(Json::parse(
      R"({"mode": "zip", "axes": [{"path": "sem.nu", "values": [0.05, 0.06]}]})"));
  EXPECT_EQ(spec.mode, "zip");
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].path, "sem.nu");

  EXPECT_THROW(scenario::SweepSpec::parse(Json::parse(R"({"mode": "diagonal", "axes": []})")),
               JsonError);
  EXPECT_THROW(scenario::SweepSpec::parse(Json::parse(
                   R"({"axes": [{"path": "sem.nu", "values": [1], "wat": 2}]})")),
               JsonError);
  EXPECT_THROW(scenario::SweepSpec::parse(Json::parse(R"({"axes": [{"path": "sem.nu",
                   "values": []}]})")),
               JsonError);
}

TEST(EnsembleTest, SweepDiagnosticsCarryJsonPaths) {
  // a bad sweep must name the offending element, not just the rule
  try {
    scenario::SweepSpec::parse(Json::parse(
        R"({"axes": [{"path": "sem.nu", "values": [1]}, {"path": "dpd.seed", "values": 3}]})"));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.axes[1].values"), std::string::npos) << e.what();
  }
  try {
    scenario::SweepSpec::parse(Json::parse(R"({"axes": [{"values": [1]}]})"));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.axes[0]"), std::string::npos) << e.what();
  }
}

TEST(EnsembleTest, LoadSweepFileCarriesFilePathInDiagnostics) {
  const std::string root = NEKTARG_SOURCE_DIR;
  const auto spec =
      scenario::load_sweep_file(root + "/examples/scenarios/sweeps/quickstart_inlet.json");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].path, "sem.inlet_umax");
  // the checked-in sweep must expand cleanly against the preset it targets
  const auto variants = scenario::EnsembleEngine::expand(
      Json::parse(scenario::scenario_to_json(scenario::quickstart_preset())), spec);
  EXPECT_EQ(variants.size(), 6u);

  try {
    scenario::load_sweep_file(root + "/examples/scenarios/sweeps/nope.json");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nope.json"), std::string::npos) << e.what();
  }
}

TEST(EnsembleTest, CrossExpansionLastAxisFastest) {
  Json base = ensemble_base_doc();
  scenario::SweepSpec sweep;
  sweep.axes.push_back({"sem.inlet_umax", {Json(0.9), Json(1.1)}});
  sweep.axes.push_back({"dpd.seed", {Json(1), Json(2), Json(3)}});
  const auto variants = scenario::EnsembleEngine::expand(base, sweep);
  ASSERT_EQ(variants.size(), 6u);
  EXPECT_EQ(scenario::find_path(variants[0].doc, "sem.inlet_umax")->as_number(), 0.9);
  EXPECT_EQ(scenario::find_path(variants[0].doc, "dpd.seed")->as_number(), 1.0);
  EXPECT_EQ(scenario::find_path(variants[1].doc, "dpd.seed")->as_number(), 2.0);  // last fastest
  EXPECT_EQ(scenario::find_path(variants[3].doc, "sem.inlet_umax")->as_number(), 1.1);
  EXPECT_NE(variants[4].name.find("inlet_umax"), std::string::npos);
  ASSERT_EQ(variants[5].coords.size(), 2u);
  EXPECT_EQ(variants[5].coords[0], 1.0);  // normalized to [0, 1]
  EXPECT_EQ(variants[5].coords[1], 1.0);

  scenario::SweepSpec zip = sweep;
  zip.mode = "zip";
  EXPECT_THROW(scenario::EnsembleEngine::expand(base, zip), JsonError);  // unequal lengths

  scenario::SweepSpec bad_path;
  bad_path.axes.push_back({"sem.does_not_exist", {Json(1.0)}});
  EXPECT_THROW(scenario::EnsembleEngine::expand(base, bad_path), JsonError);

  scenario::SweepSpec bad_value;
  bad_value.axes.push_back({"sem.nu", {Json(-1.0)}});  // fails validation up front
  EXPECT_THROW(scenario::EnsembleEngine::expand(base, bad_value), JsonError);
}

TEST(EnsembleTest, PoolMatchesSerial) {
  const Json base = ensemble_base_doc();
  const auto sweep = umax_sweep({0.9, 1.0, 1.1});

  scenario::EnsembleOptions serial_opts;
  const auto serial = scenario::EnsembleEngine(base, sweep, serial_opts).run();
  ASSERT_EQ(serial.variants.size(), 3u);
  EXPECT_EQ(serial.completed, 3u);
  EXPECT_EQ(serial.failed, 0u);
  // Identical meshes: the per-rank discretization cache hits after the first.
  EXPECT_EQ(serial.shared_misses, 1u);
  EXPECT_EQ(serial.shared_hits, 2u);

  scenario::EnsembleOptions pool_opts;
  pool_opts.pool = 3;  // 1 dispatcher + 2 workers stealing 3 variants
  const auto pool = scenario::EnsembleEngine(base, sweep, pool_opts).run();
  ASSERT_EQ(pool.variants.size(), 3u);
  EXPECT_EQ(pool.completed, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.variants[i].ok);
    EXPECT_EQ(pool.variants[i].digest, serial.variants[i].digest) << "variant " << i;
    EXPECT_GE(pool.variants[i].rank, 1);  // rank 0 is the dispatcher
  }
}

TEST(EnsembleTest, WarmStartsReduceWork) {
  Json base = ensemble_base_doc();
  scenario::require_path(base, "time.develop_steps") = Json(3000);
  scenario::require_path(base, "time.develop_tol") = Json(3e-8);
  const auto sweep = umax_sweep({1.0, 1.02, 1.04, 1.06});

  scenario::EnsembleOptions cold_opts;
  const auto cold = scenario::EnsembleEngine(base, sweep, cold_opts).run();
  scenario::EnsembleOptions warm_opts;
  warm_opts.warm = WarmMode::State;
  const auto warm = scenario::EnsembleEngine(base, sweep, warm_opts).run();

  EXPECT_EQ(cold.completed, 4u);
  EXPECT_EQ(warm.completed, 4u);
  // First variant is necessarily cold; every later one has a donor.
  EXPECT_EQ(warm.variants[0].warm_source, -1);
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_GE(warm.variants[i].warm_source, 0) << "variant " << i;
  EXPECT_LT(warm.develop_total, cold.develop_total);
  EXPECT_LT(warm.cg_total, cold.cg_total);
}

TEST(EnsembleTest, FaultIsolationKeepsSurvivorsBitwise) {
  const Json base = ensemble_base_doc();
  const auto sweep = umax_sweep({0.9, 1.0, 1.1});

  const auto healthy = scenario::EnsembleEngine(base, sweep, {}).run();
  ASSERT_EQ(healthy.failed, 0u);

  resilience::FaultPlan plan;
  plan.kill_rank(/*fault_id=*/1, /*interval=*/1);  // kill variant 1 mid-run
  scenario::EnsembleOptions opts;
  opts.fault_plan = &plan;
  const auto faulty = scenario::EnsembleEngine(base, sweep, opts).run();

  EXPECT_EQ(faulty.failed, 1u);
  EXPECT_EQ(faulty.completed, 2u);
  EXPECT_FALSE(faulty.variants[1].ok);
  EXPECT_NE(faulty.variants[1].error.find("injected fault"), std::string::npos)
      << faulty.variants[1].error;
  // The killed variant is isolated: its siblings' results are bitwise
  // identical to the healthy ensemble's.
  EXPECT_TRUE(faulty.variants[0].ok);
  EXPECT_TRUE(faulty.variants[2].ok);
  EXPECT_EQ(faulty.variants[0].digest, healthy.variants[0].digest);
  EXPECT_EQ(faulty.variants[2].digest, healthy.variants[2].digest);
}

}  // namespace
