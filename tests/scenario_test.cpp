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
#include <utility>
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

  // values the solvers would reject with an uncaught exception, and the
  // checks that moved from the parser: each is a diagnostic with its path
  const auto expect_invalid = [](const Scenario& bad, const std::string& path,
                                 const std::string& what) {
    try {
      scenario::validate_scenario(bad);
      ADD_FAILURE() << path << ": expected JsonError";
    } catch (const JsonError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path + ": "), std::string::npos) << msg;
      EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
  };
  sc = scenario::quickstart_preset();
  sc.dpd.rc = 0.0;
  expect_invalid(sc, "$.dpd.rc", "must be > 0");
  sc = scenario::quickstart_preset();
  sc.dpd.kBT = -1.0;
  expect_invalid(sc, "$.dpd.kBT", "must be >= 0");
  using Scales = scenario::ScalesSpec;
  const std::pair<double Scales::*, std::string> scales[] = {
      {&Scales::L_ns, "L_ns"}, {&Scales::L_dpd, "L_dpd"}, {&Scales::nu_ns, "nu_ns"},
      {&Scales::nu_dpd, "nu_dpd"}};
  for (const auto& [member, key] : scales) {
    sc = scenario::quickstart_preset();
    sc.coupling.scales.*member = 0.0;
    expect_invalid(sc, "$.coupling.scales." + key, "must be > 0");
  }
  sc = scenario::quickstart_preset();
  sc.coupling.region = {1.5, 2.5, 0.0};
  expect_invalid(sc, "$.coupling.region", "expected 4 numbers, got 3");
  sc = scenario::coupled3d_preset();
  sc.coupling.region = {1.5, 2.5, 0.0, 1.0};
  expect_invalid(sc, "$.coupling.region", "expected 6 numbers, got 4");
  sc = tiny_net1d();
  sc.network.junctions[0][2].end = "middle";
  expect_invalid(sc, "$.network.junctions[0][2].end", "expected \"left\" or \"right\"");
}

TEST(SchemaTest, OutOfRangeIntegerIsADiagnostic) {
  // The range check must come before the integer cast: 1e19 does not fit
  // std::int64_t, and casting it is undefined behaviour.
  for (const double bad : {1e19, -1e19, 1.5}) {
    Json doc = Json::parse(scenario::scenario_to_json(scenario::quickstart_preset()));
    *doc.find("dpd")->find("seed") = Json(bad);
    try {
      scenario::parse_scenario(doc);
      ADD_FAILURE() << bad << ": expected JsonError";
    } catch (const JsonError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("$.dpd.seed: expected integer"), std::string::npos) << msg;
    }
  }
  // the same value arriving through a sweep
  scenario::SweepSpec sweep;
  sweep.axes.push_back({"dpd.seed", {Json(1e19)}});
  try {
    scenario::EnsembleEngine::expand(
        Json::parse(scenario::scenario_to_json(scenario::quickstart_preset())), sweep);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.dpd.seed: expected integer"), std::string::npos)
        << e.what();
  }
}

TEST(SchemaTest, MeshOrderAboveCapCarriesJsonPath) {
  // an order the point evaluator's stack bases cannot hold is a scenario
  // diagnostic, not an exception from inside the discretization
  const std::pair<Scenario, std::string> cases[] = {{scenario::quickstart_preset(), "mesh"},
                                                    {scenario::coupled3d_preset(), "mesh3d"}};
  for (const auto& [preset, key] : cases) {
    Json doc = Json::parse(scenario::scenario_to_json(preset));
    *doc.find(key)->find("order") = Json(static_cast<std::int64_t>(24));
    try {
      scenario::parse_scenario(doc);
      ADD_FAILURE() << key << ": expected JsonError";
    } catch (const JsonError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("$." + key + ".order"), std::string::npos) << msg;
      EXPECT_NE(msg.find("must be <= 23"), std::string::npos) << msg;
    }
  }
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

TEST(SchemaTest, EveryKeyLandsInItsNamedMember) {
  // Reading and writing walk one key list, so two swapped entries would
  // still round-trip; only a member-by-name check catches them. Every value
  // is valid, differs from its default and from its siblings.
  const std::string coupled_sections = R"(
    "sem": {"nu": 0.07, "dt": 0.003, "time_order": 2, "inlet_umax": 1.5},
    "dpd": {"box": [11, 12, 13], "periodic": [true, false, true], "rc": 1.1, "kBT": 0.9,
            "dt": 0.02, "density": 4, "seed": 17, "fill_margin": 0.2,
            "geometry": {"kind": "none", "height": 9}},
    "flow_bc": {"axis": 1, "buffer_len": 2.5, "density": 3.5, "relax": 0.4, "seed": 98},
    "sampler": {"nx": 2, "ny": 3, "nz": 6},
    "time": {"intervals": 21, "develop_steps": 301, "develop_tol": 1e-6, "sample_from": 13},
    "checkpoint": {"every": 4, "dir": "ck"},
    "coupling": {"scales": {"L_ns": 2, "L_dpd": 20, "nu_ns": 0.06, "nu_dpd": 3},
                 "exchange_every_ns": 3, "dpd_per_ns": 11,)";

  const Scenario cdc = scenario::parse_scenario_text(
      R"({"version": 1, "name": "cdc-keys", "kind": "cdc",
          "mesh": {"length": 5, "height": 2, "nx": 3, "ny": 7, "order": 6},)" +
      coupled_sections + R"( "region": [1, 2, 0.2, 0.8]}})");
  EXPECT_EQ(cdc.name, "cdc-keys");
  EXPECT_EQ(cdc.mesh.length, 5.0);
  EXPECT_EQ(cdc.mesh.height, 2.0);
  EXPECT_EQ(cdc.mesh.nx, 3);
  EXPECT_EQ(cdc.mesh.ny, 7);
  EXPECT_EQ(cdc.mesh.order, 6);
  EXPECT_EQ(cdc.sem.nu, 0.07);
  EXPECT_EQ(cdc.sem.dt, 0.003);
  EXPECT_EQ(cdc.sem.time_order, 2);
  EXPECT_EQ(cdc.sem.inlet_umax, 1.5);
  EXPECT_EQ(cdc.dpd.box, (std::array<double, 3>{11, 12, 13}));
  EXPECT_EQ(cdc.dpd.periodic, (std::array<bool, 3>{true, false, true}));
  EXPECT_EQ(cdc.dpd.rc, 1.1);
  EXPECT_EQ(cdc.dpd.kBT, 0.9);
  EXPECT_EQ(cdc.dpd.dt, 0.02);
  EXPECT_EQ(cdc.dpd.density, 4.0);
  EXPECT_EQ(cdc.dpd.seed, 17);
  EXPECT_EQ(cdc.dpd.fill_margin, 0.2);
  EXPECT_EQ(cdc.dpd.geometry.kind, "none");
  EXPECT_EQ(cdc.dpd.geometry.height, 9.0);
  EXPECT_EQ(cdc.flow_bc.axis, 1);
  EXPECT_EQ(cdc.flow_bc.buffer_len, 2.5);
  EXPECT_EQ(cdc.flow_bc.density, 3.5);
  EXPECT_EQ(cdc.flow_bc.relax, 0.4);
  EXPECT_EQ(cdc.flow_bc.seed, 98);
  EXPECT_EQ(cdc.coupling.scales.L_ns, 2.0);
  EXPECT_EQ(cdc.coupling.scales.L_dpd, 20.0);
  EXPECT_EQ(cdc.coupling.scales.nu_ns, 0.06);
  EXPECT_EQ(cdc.coupling.scales.nu_dpd, 3.0);
  EXPECT_EQ(cdc.coupling.exchange_every_ns, 3);
  EXPECT_EQ(cdc.coupling.dpd_per_ns, 11);
  EXPECT_EQ(cdc.coupling.region, (std::vector<double>{1, 2, 0.2, 0.8}));
  EXPECT_EQ(cdc.sampler.nx, 2);
  EXPECT_EQ(cdc.sampler.ny, 3);
  EXPECT_EQ(cdc.sampler.nz, 6);
  EXPECT_EQ(cdc.time.intervals, 21);
  EXPECT_EQ(cdc.time.develop_steps, 301);
  EXPECT_EQ(cdc.time.develop_tol, 1e-6);
  EXPECT_EQ(cdc.time.sample_from, 13);
  EXPECT_EQ(cdc.checkpoint.every, 4);
  EXPECT_EQ(cdc.checkpoint.dir, "ck");

  // the sections cdc3d shares with cdc are checked above
  const Scenario cdc3d = scenario::parse_scenario_text(
      R"({"version": 1, "kind": "cdc3d",
          "mesh3d": {"lx": 5, "ly": 2, "lz": 3, "nx": 6, "ny": 7, "nz": 8, "order": 9},)" +
      coupled_sections + R"( "region": [1, 2, 0.1, 0.9, 0.3, 0.7]}})");
  EXPECT_EQ(cdc3d.mesh3d.lx, 5.0);
  EXPECT_EQ(cdc3d.mesh3d.ly, 2.0);
  EXPECT_EQ(cdc3d.mesh3d.lz, 3.0);
  EXPECT_EQ(cdc3d.mesh3d.nx, 6);
  EXPECT_EQ(cdc3d.mesh3d.ny, 7);
  EXPECT_EQ(cdc3d.mesh3d.nz, 8);
  EXPECT_EQ(cdc3d.mesh3d.order, 9);
  EXPECT_EQ(cdc3d.coupling.region, (std::vector<double>{1, 2, 0.1, 0.9, 0.3, 0.7}));

  const Scenario net = scenario::parse_scenario_text(R"({"version": 1, "kind": "net1d",
      "network": {
        "vessels": [{"length": 2, "A0": 0.4, "beta": 2e5, "rho": 1.1, "Kr": 1.2,
                     "elements": 5, "order": 3}, {}],
        "junctions": [[{"vessel": 1, "end": "left"}, {}]],
        "inlets": [{"vessel": 1, "q_mean": 6, "q_amp": 0.5, "freq": 2}],
        "outlets": [{"vessel": 1, "rp": 101, "rd": 1001, "c": 2e-4}],
        "dt": 1e-4, "cfl": 0.25, "steps_per_interval": 7},
      "time": {"intervals": 21, "develop_steps": 301, "develop_tol": 1e-6, "sample_from": 13},
      "checkpoint": {"every": 4, "dir": "ck"}})");
  ASSERT_EQ(net.network.vessels.size(), 2u);
  const auto& v = net.network.vessels[0];
  EXPECT_EQ(v.length, 2.0);
  EXPECT_EQ(v.A0, 0.4);
  EXPECT_EQ(v.beta, 2e5);
  EXPECT_EQ(v.rho, 1.1);
  EXPECT_EQ(v.Kr, 1.2);
  EXPECT_EQ(v.elements, 5);
  EXPECT_EQ(v.order, 3);
  ASSERT_EQ(net.network.junctions.size(), 1u);
  ASSERT_EQ(net.network.junctions[0].size(), 2u);
  EXPECT_EQ(net.network.junctions[0][0].vessel, 1);
  EXPECT_EQ(net.network.junctions[0][0].end, "left");
  ASSERT_EQ(net.network.inlets.size(), 1u);
  EXPECT_EQ(net.network.inlets[0].vessel, 1);
  EXPECT_EQ(net.network.inlets[0].q_mean, 6.0);
  EXPECT_EQ(net.network.inlets[0].q_amp, 0.5);
  EXPECT_EQ(net.network.inlets[0].freq, 2.0);
  ASSERT_EQ(net.network.outlets.size(), 1u);
  EXPECT_EQ(net.network.outlets[0].vessel, 1);
  EXPECT_EQ(net.network.outlets[0].rp, 101.0);
  EXPECT_EQ(net.network.outlets[0].rd, 1001.0);
  EXPECT_EQ(net.network.outlets[0].c, 2e-4);
  EXPECT_EQ(net.network.dt, 1e-4);
  EXPECT_EQ(net.network.cfl, 0.25);
  EXPECT_EQ(net.network.steps_per_interval, 7);
  EXPECT_EQ(net.time.intervals, 21);
  EXPECT_EQ(net.checkpoint.dir, "ck");
}

// --- Runner vs the handwritten examples -----------------------------------
//
// These replicate the pre-scenario examples/quickstart.cpp and coupled3d.cpp
// main loops verbatim (reduced interval/develop counts) and demand bitwise
// STATE_DIGEST equality with a Runner built from the matching preset.

std::uint32_t handwritten_quickstart_digest(int intervals, int develop) {
  auto mesh = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization disc(mesh, 4);
  sem::NavierStokes<sem::Discretization>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Discretization> ns(disc, nsp);
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
  sem::NavierStokes<sem::Discretization3D>::Params prm;
  prm.nu = nu;
  prm.dt = 2e-3;
  prm.time_order = 2;
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
  EXPECT_EQ(res.cg_iters, 0u);  // box mesh: every solve starts at its exact answer
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
// The pins last moved, from 0c02f50c (2D) and 351c803b (3D), when the
// box-mesh Helmholtz solves began at the exact fast-diagonalisation answer
// with CG only checking it in 0 iterations (HelmholtzDims's
// BoxSolvesStartAtTheAnswer in sem_test), instead of one CG iteration from
// the projector's guess. Each solve still agrees with a Jacobi-CG solve of
// the same operator to 1e-9 relative (Helmholtz2dFastDiag.AgreesWithJacobiCg
// in sem_test, Helmholtz3dFastDiag.AgreesWithJacobiCg in sem3d_test).
TEST(Scenario, PresetDigestsArePinned) {
  if (la::simd::detect() != la::simd::Isa::Avx2) GTEST_SKIP() << "digests pinned on AVX2";
  RunnerOptions q;
  q.intervals = 12;
  EXPECT_EQ(Runner(scenario::quickstart_preset(), q).run().digest, 0x77e1b283u);
  RunnerOptions c;
  c.intervals = 8;
  EXPECT_EQ(Runner(scenario::coupled3d_preset(), c).run().digest, 0x3e7a5628u);
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
  // The per-step delta floors near 1e-15 (rounding: the box-mesh solves
  // are exact); 3e-8 is reachable in ~1500 steps from rest.
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
  // box mesh: the saving shows in steps, since no solve takes a CG iteration
  EXPECT_EQ(rw.cg_iters, 0u);
  EXPECT_EQ(rc.cg_iters, 0u);
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
  // box mesh: the work is the develop steps, since no solve takes a CG iteration
  EXPECT_EQ(warm.cg_total, 0u);
  EXPECT_EQ(cold.cg_total, 0u);
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
