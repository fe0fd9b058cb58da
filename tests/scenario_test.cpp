// Scenario subsystem tests: JSON parse/dump fixed point, strict schema
// diagnostics (unknown keys / type mismatches with a "$." path), bitwise
// re-emit of the checked-in scenario files, Runner-vs-handwritten STATE_DIGEST
// equivalence for the quickstart and coupled3d stacks, ensemble sweep
// expansion, warm-start-vs-cold physical equivalence, one-variant-killed
// fault isolation, Runner's typed accessor errors, and the mains' flag
// parser (both value forms, strict integers inside their ranges).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "coupling/cdc.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/platelets.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "io/json_escape.hpp"
#include "la/simd.hpp"
#include "mesh/quadmesh.hpp"
#include "resilience/fault.hpp"
#include "resilience/snapshot.hpp"
#include "scenario/ensemble.hpp"
#include "scenario/flags.hpp"
#include "scenario/json.hpp"
#include "scenario/keys.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "scenario/schema.hpp"
#include "sem/navier_stokes.hpp"
#include "telemetry/json.hpp"

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
  // a literal beyond the double range would parse to an infinity that passes
  // every "> 0" check; it is an error at the literal
  for (const std::string lit : {"1e400", "-1e400"}) {
    try {
      Json::parse("{\n  \"nu\": " + lit + "\n}");
      FAIL() << "expected JsonError for " << lit;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2, col 9: number " + lit + " overflows a double"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonTest, NumbersRoundTripBitwise) {
  // dump writes the shortest text that parses back to the same double
  for (const double x : {0.1, 1.0 / 3.0, 5e-324, 1e15, 9007199254740994.0 /* 2^53 + 2 */, -0.0,
                         0.05, 1.1, 100000.0, -2.5e-8, 1.7976931348623157e308}) {
    const std::string text = Json(x).dump();
    const double back = Json::parse(text).as_number();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(x)) << text;
  }
  EXPECT_EQ(Json(0.05).dump(), "0.05\n");  // not %.17g's 0.050000000000000003
  EXPECT_EQ(Json(1.1).dump(), "1.1\n");
  EXPECT_EQ(Json(100000.0).dump(), "100000\n");  // integral values stay integers
  // telemetry's writer uses the same formatter
  telemetry::JsonWriter w;
  w.value(0.05);
  EXPECT_EQ(w.str(), "0.05");
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

// --- command-line flags ----------------------------------------------------

/// Parse `--intervals <value>` into a target that starts at 7.
bool parse_intervals(const std::string& value, int& n) {
  n = 7;
  scenario::Flags flags("prog");
  flags.add_int("--intervals", &n, "coupling intervals to run");
  std::string prog = "prog", name = "--intervals", arg = value;
  char* argv[] = {prog.data(), name.data(), arg.data()};
  return flags.parse(3, argv);
}

TEST(Flags, RejectsMalformedIntegers) {
  // every int flag is a count: the whole value must be a decimal int >= 0
  for (const char* bad : {"1x", "abc", "", " 5", "-3", "99999999999"}) {
    int n = 0;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parse_intervals(bad, n)) << "'" << bad << "'";
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("invalid value for --intervals: '" + std::string(bad) + "'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("usage: prog"), std::string::npos) << err;
    EXPECT_EQ(n, 7) << "'" << bad << "'";  // target untouched
  }
  const std::pair<const char*, int> good[] = {{"0", 0}, {"12", 12}, {"2147483647", 2147483647}};
  for (const auto& [text, want] : good) {
    int n = 0;
    EXPECT_TRUE(parse_intervals(text, n)) << text;
    EXPECT_EQ(n, want);
  }
}

/// Flags with an int `--n` in [2, 9] (starts at 7), a string `--scenario`, a
/// repeatable string `--set` and a bool `--digest`, parsed from `args`;
/// stderr goes to `err`.
struct Parsed {
  bool ok = false;
  int n = 7;
  std::string path;
  std::vector<std::string> sets;
  bool digest = false;
  std::string err;
};

Parsed parse_args(std::vector<std::string> args) {
  Parsed p;
  scenario::Flags flags("prog");
  flags.add_int("--n", &p.n, "a bounded count", 2, 9);
  flags.add_string("--scenario", &p.path, "a path");
  flags.add_strings("--set", &p.sets, "a repeatable assignment");
  flags.add_flag("--digest", &p.digest, "a switch");
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  testing::internal::CaptureStderr();
  p.ok = flags.parse(static_cast<int>(argv.size()), argv.data());
  p.err = testing::internal::GetCapturedStderr();
  return p;
}

TEST(Flags, AcceptsTheEqualsForm) {
  const Parsed p = parse_args({"--n=5", "--scenario=dir/a=b.json", "--digest"});
  EXPECT_TRUE(p.ok) << p.err;
  EXPECT_EQ(p.n, 5);
  EXPECT_EQ(p.path, "dir/a=b.json");  // only the first '=' splits
  EXPECT_TRUE(p.digest);
  EXPECT_EQ(parse_args({"--n", "9"}).n, 9);  // the space form, at hi
  EXPECT_EQ(parse_args({"--n=2"}).n, 2);     // at lo
}

TEST(Flags, RepeatableStringKeepsEveryValueInOrder) {
  const Parsed p = parse_args({"--set", "time.intervals=4", "--set=checkpoint.every=2"});
  EXPECT_TRUE(p.ok) << p.err;
  EXPECT_EQ(p.sets, (std::vector<std::string>{"time.intervals=4", "checkpoint.every=2"}));
  EXPECT_FALSE(parse_args({"--set"}).ok);  // a value is required
}

TEST(Flags, RejectsEmptyEqualsValue) {
  const Parsed p = parse_args({"--n="});
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.n, 7);
  EXPECT_NE(p.err.find("invalid value for --n: ''"), std::string::npos) << p.err;
}

TEST(Flags, RejectsValuesOutsideTheRange) {
  for (const char* bad : {"--n=1", "--n=10", "--n=-3"}) {
    const Parsed p = parse_args({bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_EQ(p.n, 7) << bad;
    EXPECT_NE(p.err.find("expected an integer in [2, 9]"), std::string::npos) << p.err;
  }
  const Parsed p = parse_args({"--n", "10"});
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.n, 7);
}

TEST(Flags, BoolFlagTakesNoValue) {
  const Parsed p = parse_args({"--digest=1"});
  EXPECT_FALSE(p.ok);
  EXPECT_FALSE(p.digest);
  EXPECT_NE(p.err.find("--digest takes no value"), std::string::npos) << p.err;
  EXPECT_NE(p.err.find("usage: prog"), std::string::npos) << p.err;
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
  using Scales = coupling::ScaleMap;
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
  // an integer the member's type cannot hold names the type's range
  Json doc = Json::parse(scenario::scenario_to_json(scenario::quickstart_preset()));
  *doc.find("dpd")->find("seed") = Json(-1.0);
  try {
    scenario::parse_scenario(doc);
    ADD_FAILURE() << "seed -1: expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.dpd.seed: must be in [0, 4294967295]"),
              std::string::npos)
        << e.what();
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

/// Set `path` of `preset`'s document to the JSON `value` and expect
/// parse_scenario to reject it with a diagnostic naming the path.
void expect_rejected(const Scenario& preset, const std::string& path,
                     const std::string& value) {
  Json doc = Json::parse(scenario::scenario_to_json(preset));
  scenario::require_path(doc, path) = Json::parse(value);
  try {
    scenario::parse_scenario(doc);
    ADD_FAILURE() << path << " = " << value << ": accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$." + path + ": "), std::string::npos)
        << path << " = " << value << ": " << e.what();
  }
}

TEST(Scenario, RejectsValuesTheRunnerCannotRepresent) {
  // Counts the Runner narrows to int used to wrap (nx = 2^32+1 ran one
  // element, exchange_every_ns = 2^32 ran no NS step), 32-bit seeds wrapped
  // (2^32+7 ran as seed 7), a negative buffer reached an undefined cast and
  // a buffer longer than the box never finished, and a density <= 0 or a
  // relaxation outside [0, 1] inserted nothing or overshot. A box whose
  // neighbor-cell count overflows an int, or a fill or buffer density whose
  // particle count overflows the casts and the uint32 gids, ran out of
  // memory or reached an undefined cast. A flow axis that is periodic (y) or
  // the channel's wall normal (z) deleted nothing while insertion ran, so the
  // population only grew (inserted 21 and 16 against 0 deleted in one
  // interval); a fill margin of half the height (5) filled 0 particles and
  // left the box to the BC, and a negative one filled the walls.
  const Scenario quickstart = scenario::quickstart_preset();
  const std::pair<const char*, const char*> cases[] = {
      {"mesh.nx", "4294967297"},
      {"mesh.ny", "4294967297"},
      {"coupling.exchange_every_ns", "4294967296"},
      {"coupling.dpd_per_ns", "4294967296"},
      {"sampler.nx", "4294967297"},
      {"sampler.ny", "4294967297"},
      {"sampler.nz", "4294967297"},
      {"dpd.seed", "4294967303"},
      {"dpd.seed", "-1"},
      {"flow_bc.seed", "4294967296"},
      {"flow_bc.buffer_len", "-1"},
      {"flow_bc.buffer_len", "0"},
      {"flow_bc.buffer_len", "1000"},
      {"flow_bc.density", "0"},
      {"flow_bc.density", "-3"},
      {"flow_bc.relax", "-0.1"},
      {"flow_bc.relax", "1.5"},
      {"dpd.box", "[1e12, 6, 10]"},
      {"dpd.density", "1e12"},
      {"flow_bc.density", "1e300"},
      {"flow_bc.axis", "1"},
      {"flow_bc.axis", "2"},
      {"dpd.fill_margin", "-0.1"},
      {"dpd.fill_margin", "5"},
  };
  for (const auto& [path, value] : cases) expect_rejected(quickstart, path, value);
  for (const char* axis : {"nx", "ny", "nz"})
    expect_rejected(scenario::coupled3d_preset(), std::string("mesh3d.") + axis, "4294967297");
  Json net = Json::parse(scenario::scenario_to_json(tiny_net1d()));
  *net.find("network")->find("vessels")->elements()[0].find("order") = Json(4294967297.0);
  try {
    scenario::parse_scenario(net);
    ADD_FAILURE() << "vessel order 2^32+1 accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.network.vessels[0].order: "), std::string::npos)
        << e.what();
  }
}

TEST(SchemaTest, CavityPulseAndPlateletKeysAreValidated) {
  // A fill margin of -1 put 290 extra particles inside the solid around the
  // cavity (2,454 against 2,164), after which FlowBc inserted none; 2.5, half
  // the channel height of 5, leaves the channel empty.
  const Scenario aneurysm = scenario::aneurysm_preset();
  const std::pair<const char*, const char*> cases[] = {
      {"mesh.cavity", "[3, 5]"},
      {"mesh.cavity", "[5, 3, 1]"},
      {"mesh.cavity", "[3, 5, 0]"},
      {"mesh.cavity", "[3, 9, 1]"},
      {"mesh.cavity", "[3, 5, 1e300]"},
      {"sem.inlet_pulse", "-0.1"},
      {"sem.inlet_pulse", "1.5"},
      {"dpd.geometry.kind", "\"sphere\""},
      {"dpd.geometry.cavity", "[]"},
      {"dpd.geometry.cavity", "[14, 6, 5]"},
      {"platelets.count", "-1"},
      {"platelets.count", "4294967296"},
      {"platelets.trigger_distance", "-1"},
      {"platelets.activation_delay", "-1"},
      {"platelets.bind_distance", "-1"},
      {"dpd.fill_margin", "-1"},
      {"dpd.fill_margin", "2.5"},
  };
  for (const auto& [path, value] : cases) expect_rejected(aneurysm, path, value);
  // a cavity on a geometry that has none would be ignored: reject it
  expect_rejected(scenario::quickstart_preset(), "dpd.geometry.cavity", "[6, 14, 5]");
}

TEST(SchemaTest, ChannelHeightAndCheckpointPolicyAreValidated) {
  // A channel height <= 0 leaves no fluid and ran with 0 particles; a
  // negative checkpoint.every silently meant "never"; an empty directory with
  // checkpoints on would write "/step-N" at the filesystem root. Each case is
  // only parsed, never run.
  const Scenario quickstart = scenario::quickstart_preset();
  expect_rejected(quickstart, "dpd.geometry.height", "0");
  expect_rejected(quickstart, "dpd.geometry.height", "-2");
  expect_rejected(scenario::aneurysm_preset(), "dpd.geometry.height", "0");
  expect_rejected(quickstart, "checkpoint.every", "-1");
  expect_rejected(tiny_net1d(), "checkpoint.every", "-1");
  Scenario checkpointing = quickstart;
  checkpointing.checkpoint.every = 2;
  expect_rejected(checkpointing, "checkpoint.dir", "\"\"");
  // without checkpoints the directory is never used
  Scenario never = quickstart;
  never.checkpoint.dir = "";
  EXPECT_NO_THROW(scenario::validate_scenario(never));
}

TEST(SchemaTest, CouplingRegionLiesInsideTheContinuumMesh) {
  // A region past the mesh was read at the mesh edge and then aborted in the
  // driver's epilogue. The 2D box includes the sac's whole element rows
  // (aneurysm: height 1 plus 2 rows of 0.5); the 3D box is the mesh box.
  const Scenario quickstart = scenario::quickstart_preset();
  const char* const outside[] = {
      "[1.5, 9, 0, 1]",
      "[1.5, 2.5, 0, 3]",
      "[-3, 2.5, 0, 1]",
      "[1.5, 2.5, -0.1, 1]",
  };
  for (const char* region : outside) expect_rejected(quickstart, "coupling.region", region);
  const Scenario aneurysm = scenario::aneurysm_preset();
  expect_rejected(aneurysm, "coupling.region", "[2, 6, 0, 2.5]");
  expect_rejected(aneurysm, "coupling.region", "[2, 8.5, 0, 2]");
  const Scenario coupled3d = scenario::coupled3d_preset();
  expect_rejected(coupled3d, "coupling.region", "[1.5, 2.5, 0.25, 0.75, 0, 1.5]");
  expect_rejected(coupled3d, "coupling.region", "[1.5, 2.5, 0.25, 1.25, 0, 1]");
  expect_rejected(coupled3d, "coupling.region", "[-1, 2.5, 0.25, 0.75, 0, 1]");
  // the whole mesh box is a valid region
  Scenario whole = quickstart;
  whole.coupling.region = {0.0, 4.0, 0.0, 1.0};
  EXPECT_NO_THROW(scenario::validate_scenario(whole));
  Scenario sac = aneurysm;
  sac.coupling.region = {0.0, 8.0, 0.0, 2.0};
  EXPECT_NO_THROW(scenario::validate_scenario(sac));
  Scenario box = coupled3d;
  box.coupling.region = {0.0, 4.0, 0.0, 1.0, 0.0, 1.0};
  EXPECT_NO_THROW(scenario::validate_scenario(box));
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

template <class T>
concept HasFields = requires(const T* p) { fields(p); };

/// Walks the key lists (scenario/keys.hpp) of one valid document and moves
/// each value that has a range to the range's edges, one at a time: a value
/// inside is not rejected by its bound, the nearest value outside (the next
/// integer, or std::nextafter) and NaN are, at the key's own path. A rule
/// over several keys may still reject an edge value elsewhere (a 5e-324
/// mesh length leaves the coupling region outside the mesh). A string with
/// an allowed set takes each member and is rejected at one non-member.
class EdgeWalk {
 public:
  explicit EdgeWalk(const Scenario& sc) : doc_(scenario::serialize_scenario(sc)) {
    fields_of(doc_, "$", scenario::sections(sc.kind));
  }
  std::vector<std::string> visited;

 private:
  template <class S, class... M>
  void fields_of(Json& obj, const std::string& path,
                 const std::tuple<scenario::Field<S, M>...>& list) {
    std::apply([&](const auto&... fl) { (member(obj, path, fl), ...); }, list);
  }

  template <class S, class M>
  void member(Json& obj, const std::string& path, const scenario::Field<S, M>& fl) {
    if (fl.use != scenario::Use::Absent) value<M>(*obj.find(fl.key), path + "." + fl.key, fl);
  }

  template <class T, class F>
  void value(Json& v, const std::string& path, const F& fl) {
    const double inf = std::numeric_limits<double>::infinity();
    if constexpr (HasFields<T>) {
      fields_of(v, path, fields(static_cast<const T*>(nullptr)));
    } else if constexpr (scenario::is_vector<T> || scenario::is_std_array<T>) {
      for (std::size_t i = 0; i < v.elements().size(); ++i) {
        const std::string at = path + "[" + std::to_string(i) + "]";
        value<typename T::value_type>(v.elements()[i], at, fl);
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (fl.allowed.empty()) return;
      visited.push_back(path);
      const std::string bound = path + ": expected \"";
      for (const char* member : fl.allowed) expect(v, Json(member), bound, false);
      expect(v, Json("not-a-member"), bound, true);
    } else if constexpr (std::is_arithmetic_v<T>) {
      const auto past = [&](double edge, double dir) {
        return std::is_integral_v<T> ? edge + dir : std::nextafter(edge, dir * inf);
      };
      const auto text = [](double x) { return scenario::number_text(x); };
      if (fl.lo > -inf) {
        visited.push_back(path);
        const std::string bound = path + ": must be " + (fl.open ? "> " : ">= ") + text(fl.lo);
        expect(v, Json(fl.lo), bound, fl.open);
        expect(v, Json(past(fl.lo, fl.open ? 1 : -1)), bound, !fl.open);
        if (std::is_floating_point_v<T>) expect(v, Json(std::nan("")), bound, true);
      }
      if (fl.hi < inf) {
        visited.push_back(path);
        const std::string bound = path + ": must be <= " + text(fl.hi);
        expect(v, Json(fl.hi), bound, false);
        expect(v, Json(past(fl.hi, 1)), bound, true);
      }
    }
  }

  /// Parses the document with `v` set to `x`, then restores `v`.
  void expect(Json& v, const Json& x, const std::string& bound, bool rejected) {
    const Json keep = v;
    v = x;
    std::string msg;
    try {
      scenario::parse_scenario(doc_);
    } catch (const JsonError& e) {
      msg = e.what();
    }
    v = keep;
    const double shown = x.is_number() ? x.as_number() : 0.0;
    EXPECT_EQ(msg.find(bound) != std::string::npos, rejected)
        << bound << " (value " << (x.is_string() ? x.as_string() : std::to_string(shown))
        << "): " << (msg.empty() ? "accepted" : msg);
  }

  Json doc_;
};

TEST(SchemaTest, EveryBoundHoldsAtItsEdge) {
  const Scenario net1d = scenario::parse_scenario_text(
      R"({"version": 1, "kind": "net1d", "network": {"vessels": [{}, {}],
          "junctions": [[{"vessel": 0}, {"vessel": 1, "end": "left"}]],
          "inlets": [{}], "outlets": [{"vessel": 1}]}})");
  std::vector<std::string> visited;
  for (const Scenario& sc : {scenario::quickstart_preset(), scenario::coupled3d_preset(),
                             scenario::aneurysm_preset(), net1d}) {
    SCOPED_TRACE(sc.kind + " " + sc.name);
    const EdgeWalk walk(sc);
    visited.insert(visited.end(), walk.visited.begin(), walk.visited.end());
  }
  for (const char* path : {"$.mesh.order", "$.mesh3d.order", "$.dpd.box[2]",
                           "$.dpd.geometry.kind", "$.flow_bc.relax", "$.network.outlets[0].c",
                           "$.network.outlets[0].rd", "$.network.junctions[0][1].end"})
    EXPECT_NE(std::find(visited.begin(), visited.end(), path), visited.end()) << path;
  // a hand-built NaN fails its bound through validate_scenario's read-back
  Scenario nan = scenario::quickstart_preset();
  nan.sem.nu = std::nan("");
  EXPECT_THROW(scenario::validate_scenario(nan), JsonError);
}

TEST(SchemaTest, VersionAndKindAreChecked) {
  Json doc = Json::parse(scenario::scenario_to_json(scenario::quickstart_preset()));
  *doc.find("version") = Json(static_cast<std::int64_t>(99));
  EXPECT_THROW(scenario::parse_scenario(doc), JsonError);

  doc = Json::parse(R"({"version": 1, "kind": "net1d2d"})");
  try {
    scenario::parse_scenario(doc);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("reserved"), std::string::npos) << e.what();
  }

  for (const char* kind : {"mci", "warp"}) {
    doc = Json::parse(std::string(R"({"version": 1, "kind": ")") + kind + "\"}");
    try {
      scenario::parse_scenario(doc);
      FAIL() << "expected JsonError for kind " << kind;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown kind"), std::string::npos) << e.what();
    }
  }
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
  for (const Scenario& sc : {scenario::quickstart_preset(), scenario::coupled3d_preset(),
                             scenario::aneurysm_preset(), tiny_net1d()}) {
    const std::string text = scenario::scenario_to_json(sc);
    const Scenario back = scenario::parse_scenario_text(text);
    EXPECT_EQ(scenario::scenario_to_json(back), text) << sc.name;
  }
}

// Each checked-in file is its preset's bytes, and both run to one digest.
TEST(SchemaTest, CheckedInFilesMatchPresets) {
  const std::string dir = std::string(NEKTARG_SOURCE_DIR) + "/examples/scenarios/";
  const std::pair<const char*, Scenario> presets[] = {
      {"quickstart.json", scenario::quickstart_preset()},
      {"coupled3d.json", scenario::coupled3d_preset()},
      {"aneurysm.json", scenario::aneurysm_preset()}};
  for (auto [file, preset] : presets) {
    SCOPED_TRACE(file);
    EXPECT_EQ(slurp(dir + file), scenario::scenario_to_json(preset));
    Scenario from_file = scenario::load_scenario_file(dir + file);
    preset.time.intervals = from_file.time.intervals = 2;
    EXPECT_EQ(Runner(from_file).run().digest, Runner(preset).run().digest);
  }
}

TEST(SchemaTest, EveryKeyLandsInItsNamedMember) {
  // Reading and writing walk one key list, so two swapped entries would
  // still round-trip; only a member-by-name check catches them. Every value
  // is valid, differs from its default and from its siblings.
  const std::string coupled_sections = R"(
    "sem": {"nu": 0.07, "dt": 0.003, "time_order": 2, "inlet_umax": 1.5, "inlet_pulse": 0.25},
    "dpd": {"box": [11, 12, 13], "periodic": [true, false, true], "rc": 1.1, "kBT": 0.9,
            "dt": 0.02, "density": 4, "seed": 17, "fill_margin": 0.2,
            "geometry": {"kind": "channel_with_cavity_z", "height": 9, "cavity": [2, 4, 1.5]}},
    "platelets": {"count": 7, "trigger_distance": 1.3, "activation_delay": 2.5,
                  "bind_distance": 0.7},
    "flow_bc": {"axis": 1, "buffer_len": 2.5, "density": 3.5, "relax": 0.4, "seed": 98},
    "sampler": {"nx": 2, "ny": 3, "nz": 6},
    "time": {"intervals": 21, "develop_steps": 301, "develop_tol": 1e-6, "sample_from": 13},
    "checkpoint": {"every": 4, "dir": "ck"},
    "coupling": {"scales": {"L_ns": 2, "L_dpd": 20, "nu_ns": 0.06, "nu_dpd": 3},
                 "exchange_every_ns": 3, "dpd_per_ns": 11,)";

  const Scenario cdc = scenario::parse_scenario_text(
      R"({"version": 1, "name": "cdc-keys", "kind": "cdc",
          "mesh": {"length": 5, "height": 2, "nx": 3, "ny": 7, "order": 6,
                   "cavity": [1, 3, 0.5]},)" +
      coupled_sections + R"( "region": [1, 2, 0.2, 0.8]}})");
  EXPECT_EQ(cdc.name, "cdc-keys");
  EXPECT_EQ(cdc.mesh.length, 5.0);
  EXPECT_EQ(cdc.mesh.height, 2.0);
  EXPECT_EQ(cdc.mesh.nx, 3);
  EXPECT_EQ(cdc.mesh.ny, 7);
  EXPECT_EQ(cdc.mesh.order, 6);
  EXPECT_EQ(cdc.mesh.cavity, (std::vector<double>{1, 3, 0.5}));
  EXPECT_EQ(cdc.sem.nu, 0.07);
  EXPECT_EQ(cdc.sem.dt, 0.003);
  EXPECT_EQ(cdc.sem.time_order, 2);
  EXPECT_EQ(cdc.sem.inlet_umax, 1.5);
  EXPECT_EQ(cdc.sem.inlet_pulse, 0.25);
  EXPECT_EQ(cdc.dpd.box, (std::array<double, 3>{11, 12, 13}));
  EXPECT_EQ(cdc.dpd.periodic, (std::array<bool, 3>{true, false, true}));
  EXPECT_EQ(cdc.dpd.rc, 1.1);
  EXPECT_EQ(cdc.dpd.kBT, 0.9);
  EXPECT_EQ(cdc.dpd.dt, 0.02);
  EXPECT_EQ(cdc.dpd.density, 4.0);
  EXPECT_EQ(cdc.dpd.seed, 17);
  EXPECT_EQ(cdc.dpd.fill_margin, 0.2);
  EXPECT_EQ(cdc.dpd.geometry.kind, "channel_with_cavity_z");
  EXPECT_EQ(cdc.dpd.geometry.height, 9.0);
  EXPECT_EQ(cdc.dpd.geometry.cavity, (std::vector<double>{2, 4, 1.5}));
  EXPECT_EQ(cdc.platelets.count, 7);
  EXPECT_EQ(cdc.platelets.trigger_distance, 1.3);
  EXPECT_EQ(cdc.platelets.activation_delay, 2.5);
  EXPECT_EQ(cdc.platelets.bind_distance, 0.7);
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

// examples/scenarios/pins.json holds one pin per checked-in scenario: an
// interval count, a restart step and the STATE_DIGEST (`--digest`) of that
// run. Each scenario runs once checkpointing at the restart step, with both
// values set through the document as the driver's --set does, and once
// resumed from that checkpoint. The two runs agree bitwise on every ISA.
// The scalar kernels sum in a different order, so the pinned digest holds on
// AVX2 only; it is what catches a refactor that shifts both runs alike.
// The pins last moved, from 0c02f50c (2D) and 351c803b (3D), when the
// box-mesh Helmholtz solves began at the exact fast-diagonalisation answer
// with CG only checking it in 0 iterations (HelmholtzDims's
// BoxSolvesStartAtTheAnswer in sem_test), instead of one CG iteration from
// the projector's guess. Each solve still agrees with a Jacobi-CG solve of
// the same operator to 1e-9 relative (Helmholtz2dFastDiag.AgreesWithJacobiCg
// in sem_test, Helmholtz3dFastDiag.AgreesWithJacobiCg in sem3d_test).
TEST(Scenario, CheckedInScenariosMatchTheirPinsAcrossARestart) {
  const std::string dir = std::string(NEKTARG_SOURCE_DIR) + "/examples/scenarios/";
  Json pins = Json::parse(slurp(dir + "pins.json"));
  EXPECT_EQ(pins.elements().size(), 3u);
  const bool avx2 = la::simd::detect() == la::simd::Isa::Avx2;
  for (Json& pin : pins.elements()) {
    const std::string file = scenario::require_path(pin, "scenario").as_string();
    SCOPED_TRACE(file);
    const Json restart_at = scenario::require_path(pin, "restart_at");
    const std::string ckpt = testing::TempDir() + "/nektarg-pin-" + file;
    std::filesystem::remove_all(ckpt);
    Json doc = scenario::serialize_scenario(scenario::load_scenario_file(dir + file));
    scenario::require_path(doc, "time.intervals") = scenario::require_path(pin, "intervals");
    scenario::require_path(doc, "checkpoint.every") = restart_at;
    scenario::require_path(doc, "checkpoint.dir") = Json(ckpt);
    const Scenario sc = scenario::parse_scenario(doc);

    const auto full = Runner(sc).run();
    RunnerOptions ro;
    ro.restart_dir = ckpt + "/step-" + std::to_string(static_cast<int>(restart_at.as_number()));
    const auto resumed = Runner(sc, ro).run();
    EXPECT_TRUE(resumed.restarted);
    EXPECT_EQ(resumed.digest, full.digest);
    if (avx2) {
      char hex[9];
      std::snprintf(hex, sizeof hex, "%08x", full.digest);
      EXPECT_EQ(hex, scenario::require_path(pin, "digest").as_string());
    }
  }
}

// A restart from a checkpoint past the run's last interval is refused with
// an error naming the step and time.intervals; one at the last interval is
// an empty resume (the e2e benchmark's resume leg).
TEST(RunnerTest, RestartPastTheEndIsRefused) {
  Scenario sc = scenario::quickstart_preset();
  sc.time.develop_steps = 2;
  sc.time.intervals = 3;
  sc.checkpoint.every = 2;
  sc.checkpoint.dir = testing::TempDir() + "/nektarg-scenario-past-end";
  std::filesystem::remove_all(sc.checkpoint.dir);
  Runner(sc).run();

  RunnerOptions ro;
  ro.restart_dir = sc.checkpoint.dir + "/step-2";
  sc.time.intervals = 1;
  try {
    Runner(sc, ro).run();
    ADD_FAILURE() << "restart past the end did not throw";
  } catch (const scenario::RestartPastEndError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checkpoint step 2"), std::string::npos) << what;
    EXPECT_NE(what.find("time.intervals = 1"), std::string::npos) << what;
  }
  sc.time.intervals = 2;
  const auto at_end = Runner(sc, ro).run();
  EXPECT_TRUE(at_end.restarted);
  EXPECT_EQ(at_end.intervals_run, 0u);
}

TEST(RunnerTest, Net1dDeterministicDigest) {
  const Scenario sc = tiny_net1d();
  const auto a = Runner(sc).run();
  const auto b = Runner(sc).run();
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
}

// Kind-specific accessors on a run that built no such part throw a typed
// error naming the accessor and the kind, instead of dereferencing null or
// throwing std::bad_variant_access.
TEST(RunnerTest, AccessorsNameTheMissingKind) {
  const auto expect_named = [](auto&& call, const std::string& accessor, const char* kind) {
    try {
      call();
      ADD_FAILURE() << accessor << " did not throw";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(accessor), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + kind + "\""), std::string::npos) << what;
    }
  };
  Runner net(tiny_net1d());
  net.run();
  expect_named([&] { net.sampler(); }, "sampler()", "net1d");
  expect_named([&] { net.dpd(); }, "dpd()", "net1d");
  expect_named([&] { net.flow_bc(); }, "flow_bc()", "net1d");
  expect_named([&] { net.eval_u(2.0, 0.5); }, "eval_u(x, y)", "net1d");
  EXPECT_GT(net.network().time(), 0.0);

  Scenario sc = scenario::quickstart_preset();
  sc.time.develop_steps = 2;
  sc.time.intervals = 0;
  Runner cdc(sc);
  cdc.run();
  expect_named([&] { cdc.eval_u(2.0, 0.5, 0.5); }, "eval_u(x, y, z)", "cdc");
  expect_named([&] { cdc.network(); }, "network()", "cdc");
  EXPECT_TRUE(std::isfinite(cdc.eval_u(2.0, 0.5)));
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

TEST(RunnerTest, SharedTablesKeyOnTheCavity) {
  scenario::SharedTables tables;
  const scenario::MeshSpec cavity = scenario::aneurysm_preset().mesh;
  scenario::MeshSpec straight = cavity;
  straight.cavity.clear();
  const auto a = tables.quad(cavity);
  const auto b = tables.quad(straight);
  EXPECT_NE(a, b);
  EXPECT_GT(a->num_nodes(), b->num_nodes());
  EXPECT_EQ(tables.misses(), 2u);
  EXPECT_EQ(tables.hits(), 0u);
}

// The table key is the spec's own serialization: changing any one mesh key
// builds new tables, and the unchanged spec still hits.
TEST(RunnerTest, SharedTablesMissOnEveryMeshKey) {
  scenario::SharedTables tables;
  const scenario::MeshSpec quad = scenario::aneurysm_preset().mesh;
  const std::vector<std::function<void(scenario::MeshSpec&)>> quad_edits = {
      [](auto& m) { m.length = 9.0; },
      [](auto& m) { m.height = 1.5; },
      [](auto& m) { m.nx = 8; },
      [](auto& m) { m.ny = 4; },
      [](auto& m) { m.order = 3; },
      [](auto& m) { m.cavity[2] = 0.5; },
      [](auto& m) { m.cavity = {2.0, 5.0, 1.0}; },
      [](auto& m) { m.cavity.clear(); },
  };
  const auto base = tables.quad(quad);
  for (std::size_t k = 0; k < quad_edits.size(); ++k) {
    scenario::MeshSpec m = quad;
    quad_edits[k](m);
    EXPECT_NE(tables.quad(m), base) << "2D edit " << k;
    EXPECT_EQ(tables.misses(), k + 2) << "2D edit " << k;
  }
  EXPECT_EQ(tables.quad(quad), base);
  EXPECT_EQ(tables.hits(), 1u);

  const scenario::Mesh3dSpec hex;
  const std::vector<std::function<void(scenario::Mesh3dSpec&)>> hex_edits = {
      [](auto& m) { m.lx = 5.0; },
      [](auto& m) { m.ly = 2.0; },
      [](auto& m) { m.lz = 2.0; },
      [](auto& m) { m.nx = 2; },
      [](auto& m) { m.ny = 2; },
      [](auto& m) { m.nz = 1; },
      [](auto& m) { m.order = 3; },
  };
  const auto hbase = tables.hex(hex);
  const std::size_t misses = tables.misses();
  for (std::size_t k = 0; k < hex_edits.size(); ++k) {
    scenario::Mesh3dSpec m = hex;
    hex_edits[k](m);
    EXPECT_NE(tables.hex(m), hbase) << "3D edit " << k;
    EXPECT_EQ(tables.misses(), misses + k + 1) << "3D edit " << k;
  }
  EXPECT_EQ(tables.hex(hex), hbase);
  EXPECT_EQ(tables.hits(), 2u);
}

// A checkpoint taken after platelets have triggered (trigger times, states,
// frozen arrests) resumes to the uninterrupted run's digest: the end-to-end
// gate on PlateletModel checkpointing.
TEST(RunnerTest, PlateletRestartEqualsUninterrupted) {
  Scenario sc = scenario::aneurysm_preset();
  sc.platelets.activation_delay = 0.5;
  sc.time.develop_steps = 10;
  sc.time.intervals = 4;
  sc.checkpoint.every = 2;
  sc.checkpoint.dir = testing::TempDir() + "/nektarg-scenario-platelets";
  std::filesystem::remove_all(sc.checkpoint.dir);
  const auto full = Runner(sc).run();

  RunnerOptions ro;
  ro.restart_dir = sc.checkpoint.dir + "/step-2";
  Runner probe(sc, ro);
  probe.build();
  const auto& pl = probe.platelets();
  EXPECT_GT(pl.total() - pl.count(dpd::PlateletState::Passive), 0u)
      << "no platelet had triggered by the checkpoint";
  const auto resumed = Runner(sc, ro).run();
  EXPECT_TRUE(resumed.restarted);
  EXPECT_EQ(resumed.intervals_run, 2u);
  EXPECT_EQ(resumed.digest, full.digest);
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
  // an axis over an object shadows an axis over one of its members: the
  // error names both
  try {
    scenario::SweepSpec::parse(Json::parse(R"({"axes": [{"path": "coupling.region",
        "values": [[1, 3, 0.1, 0.9]]}, {"path": "coupling", "values": [{}]}]})"));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  R"($.axes[1] ("coupling") overlaps $.axes[0] ("coupling.region"))"),
              std::string::npos)
        << e.what();
  }
  // a path that merely starts with the other's name is a different value
  EXPECT_NO_THROW(scenario::SweepSpec::parse(Json::parse(
      R"({"axes": [{"path": "mesh", "values": [1]}, {"path": "mesh3d", "values": [1]}]})")));
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
  // donors: the nearest earlier variant over the coordinates normalized to
  // [0, 1] — (0,0) (0,.5) (0,1) (1,0) (1,.5) (1,1)
  const std::vector<std::int64_t> donors = {-1, 0, 1, 0, 3, 4};
  for (std::size_t i = 0; i < variants.size(); ++i)
    EXPECT_EQ(variants[i].donor, donors[i]) << "variant " << i;
  // 1.0 lies as near 0.9 as 1.1: ties go to the lower index
  const auto tie = scenario::EnsembleEngine::expand(base, umax_sweep({0.9, 1.1, 1.0}));
  EXPECT_EQ(tie[2].donor, 0);

  scenario::SweepSpec zip = sweep;
  zip.mode = "zip";
  EXPECT_THROW(scenario::EnsembleEngine::expand(base, zip), JsonError);  // unequal lengths

  scenario::SweepSpec bad_path;
  bad_path.axes.push_back({"sem.does_not_exist", {Json(1.0)}});
  EXPECT_THROW(scenario::EnsembleEngine::expand(base, bad_path), JsonError);

  scenario::SweepSpec bad_value;
  bad_value.axes.push_back({"sem.nu", {Json(-1.0)}});  // fails validation up front
  EXPECT_THROW(scenario::EnsembleEngine::expand(base, bad_value), JsonError);

  // two axes over one value (equal paths, or one path a dotted prefix of the
  // other) would print both values in the variant names but run only the
  // later one
  for (const auto& [p0, p1] : {std::pair{"sem.inlet_umax", "sem.inlet_umax"},
                               std::pair{"coupling.region", "coupling"},
                               std::pair{"coupling", "coupling.region"}}) {
    scenario::SweepSpec overlap;
    overlap.axes.push_back({p0, {Json(1.0)}});
    overlap.axes.push_back({p1, {Json(1.0)}});
    try {
      scenario::EnsembleEngine::expand(base, overlap);
      ADD_FAILURE() << p0 << " and " << p1 << " expanded";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("$.axes[1] (\"") + p1 +
                                           "\") overlaps $.axes[0] (\"" + p0 + "\")"),
                std::string::npos)
          << e.what();
    }
  }
}

/// Every pool size must return the serial run's per-variant results: each
/// donor is fixed when the sweep is expanded, so with warm starts on a
/// variant waits for its donor instead of taking whatever has finished.
void expect_pool_matches_serial(const Json& base, const scenario::SweepSpec& sweep,
                                WarmMode warm) {
  scenario::EnsembleOptions opts;
  opts.warm = warm;
  const auto serial = scenario::EnsembleEngine(base, sweep, opts).run();
  ASSERT_EQ(serial.failed, 0u);
  // Identical meshes: the per-rank discretization cache hits after the first.
  EXPECT_EQ(serial.shared_misses, 1u);
  EXPECT_EQ(serial.shared_hits, serial.variants.size() - 1);
  for (const int pool : {2, 3, 4}) {  // 1 dispatcher + 1, 2 or 3 workers
    opts.pool = pool;
    const auto rep = scenario::EnsembleEngine(base, sweep, opts).run();
    ASSERT_EQ(rep.variants.size(), serial.variants.size());
    EXPECT_EQ(rep.completed, serial.completed);
    for (std::size_t i = 0; i < rep.variants.size(); ++i) {
      const auto& p = rep.variants[i];
      const auto& s = serial.variants[i];
      SCOPED_TRACE("pool " + std::to_string(pool) + ", variant " + std::to_string(i));
      EXPECT_TRUE(p.ok) << p.error;
      EXPECT_EQ(p.digest, s.digest);
      EXPECT_EQ(p.warm_source, s.warm_source);
      EXPECT_EQ(p.develop_steps, s.develop_steps);
      EXPECT_GE(p.rank, 1);  // rank 0 is the dispatcher
    }
  }
}

TEST(EnsembleTest, PoolMatchesSerial) {
  const std::string root = NEKTARG_SOURCE_DIR;
  const auto inlet =
      scenario::load_sweep_file(root + "/examples/scenarios/sweeps/quickstart_inlet.json");
  // a tolerance-terminated develop phase, so a warm start changes the step count
  Json tol = ensemble_base_doc();
  scenario::require_path(tol, "time.develop_steps") = Json(3000);
  scenario::require_path(tol, "time.develop_tol") = Json(3e-8);
  for (const WarmMode warm : {WarmMode::Off, WarmMode::State}) {
    SCOPED_TRACE(warm == WarmMode::Off ? "cold" : "warm");
    expect_pool_matches_serial(ensemble_base_doc(), inlet, warm);  // the checked-in 3x2
    expect_pool_matches_serial(tol, umax_sweep({1.0, 1.02, 1.04, 1.06}), warm);
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

TEST(EnsembleTest, WarmDependantOfAKilledVariantStartsColdUnderBothExecutors) {
  const Json base = ensemble_base_doc();
  const auto sweep = umax_sweep({0.9, 1.0, 1.1});  // donors: -1, 0, 1
  resilience::FaultPlan plan;
  plan.kill_rank(/*fault_id=*/1, /*interval=*/1);
  scenario::EnsembleOptions opts;
  opts.warm = WarmMode::State;
  opts.fault_plan = &plan;
  const auto serial = scenario::EnsembleEngine(base, sweep, opts).run();
  opts.pool = 3;
  const auto pool = scenario::EnsembleEngine(base, sweep, opts).run();

  ASSERT_EQ(serial.variants.size(), 3u);
  ASSERT_EQ(pool.variants.size(), 3u);
  EXPECT_FALSE(serial.variants[1].ok);
  EXPECT_EQ(serial.variants[0].warm_source, -1);
  EXPECT_EQ(serial.variants[2].warm_source, -1);  // its donor died: cold, not variant 0
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    EXPECT_EQ(pool.variants[i].ok, serial.variants[i].ok);
    EXPECT_EQ(pool.variants[i].digest, serial.variants[i].digest);
    EXPECT_EQ(pool.variants[i].warm_source, serial.variants[i].warm_source);
    EXPECT_EQ(pool.variants[i].develop_steps, serial.variants[i].develop_steps);
  }
  // cold, variant 2 ends where a cold ensemble's variant 2 does
  const auto cold = scenario::EnsembleEngine(base, sweep, {}).run();
  EXPECT_EQ(serial.variants[2].digest, cold.variants[2].digest);
}

}  // namespace
