#pragma once
// Versioned scenario schema: the declarative description of a NektarG run.
// A scenario names a solver stack ("kind") and carries the full parameter
// set the hand-written examples used to hard-code — geometry/mesh, SEM
// patch, DPD region + FlowBc, coupling layout (Eq. 1 scales + Fig. 5
// schedule), time stepping, and checkpoint policy. Parsing is strict:
// unknown keys, type mismatches and semantic violations are hard errors
// carrying the JSON path ("$.sem.nu") so a typo'd config can never silently
// run with defaults.
//
// Each struct's keys are listed once, as (key, member, range) entries in
// scenario/keys.hpp; one reader and one writer (scenario/fields.hpp) walk
// that list, so a field is parsed, range-checked and emitted under the same
// key or not at all.
// Where a solver already has a parameter struct (the Eq. (1) ScaleMap, the
// FlowBc and sampler parameters) the scenario holds that struct itself, and
// every integer member has the type its solver takes: the reader rejects a
// value outside that type's range at its JSON path, so the Runner passes
// each value on without a cast.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "coupling/scales.hpp"
#include "dpd/inflow.hpp"
#include "dpd/sampling.hpp"
#include "scenario/json.hpp"

namespace scenario {

inline constexpr std::int64_t kSchemaVersion = 1;

/// 2D channel mesh (kind "cdc"): mesh::QuadMesh::channel + SEM order, or
/// QuadMesh::channel_with_cavity when `cavity` is set.
struct MeshSpec {
  double length = 4.0;
  double height = 1.0;
  int nx = 8;
  int ny = 2;
  int order = 4;
  std::vector<double> cavity;  ///< [x0, x1, depth] on the upper wall; empty: none
};

/// 3D box mesh (kind "cdc3d"): sem::Discretization3D.
struct Mesh3dSpec {
  double lx = 4.0, ly = 1.0, lz = 1.0;
  int nx = 4, ny = 1, nz = 2;
  int order = 4;
};

/// SEM Navier-Stokes patch. The boundary layout is the channel family both
/// examples use (parabolic inflow scaled by `inlet_umax`, natural outflow,
/// no-slip walls); richer per-face BC tables are a schema v2 concern.
struct SemSpec {
  double nu = 0.05;
  double dt = 2e-3;
  int time_order = 1;
  double inlet_umax = 1.0;
  double inlet_pulse = 0.0;  ///< a in the inflow u_in (1 + a sin(2 pi t / 0.8))
};

/// DPD wall geometry (SDF). Kinds: "none", "channel_z", "channel_with_cavity_z".
struct DpdGeometrySpec {
  std::string kind = "channel_z";
  double height = 10.0;  ///< fluid for 0 < z < height
  std::vector<double> cavity;  ///< channel_with_cavity_z: [x0, x1, depth] above
};

/// DPD region: box, thermodynamic state and initial fill.
struct DpdSpec {
  std::array<double, 3> box{16.0, 6.0, 10.0};
  std::array<bool, 3> periodic{false, true, false};
  double rc = 1.0;
  double kBT = 1.0;
  double dt = 0.01;
  double density = 3.0;
  unsigned seed = 7;
  double fill_margin = 0.1;
  DpdGeometrySpec geometry;
};

/// Platelets seeded into the DPD box (Pivkin et al. aggregation model). The
/// adhesive wall is the cavity: everything above z = dpd.geometry.height.
struct PlateletSpec {
  int count = 0;  ///< 0: no platelet model
  double trigger_distance = 1.0;
  double activation_delay = 2.0;
  double bind_distance = 0.6;
};

/// Coupling layout: Eq. (1) scales, Fig. 5 schedule and the embedded region
/// (4 numbers [x0, x1, y0, y1] for "cdc", 6 [..., z0, z1] for "cdc3d").
struct CouplingSpec {
  coupling::ScaleMap scales{1.0, 10.0, 0.05, 2.5};
  int exchange_every_ns = 2;
  int dpd_per_ns = 10;
  std::vector<double> region{1.5, 2.5, 0.0, 1.0};
};

/// Time stepping: coupling intervals, the continuum develop phase, and when
/// the sampler starts accumulating.
struct TimeSpec {
  std::int64_t intervals = 20;
  /// Continuum develop steps before coupling starts (cap when develop_tol
  /// is set).
  std::int64_t develop_steps = 300;
  /// > 0: stop developing early once the max per-step velocity change drops
  /// below this (steady-state detection — what makes ensemble warm starts
  /// pay; see docs/SCENARIOS.md). 0: exactly develop_steps (bitwise mode).
  double develop_tol = 0.0;
  std::int64_t sample_from = 12;
};

struct CheckpointSpec {
  std::int64_t every = 0;  ///< checkpoint every N intervals (0 = never)
  std::string dir = "scenario-ckpt";
};

// --- 1D network (kind "net1d") ---------------------------------------------

/// Not nektar1d::VesselParams itself: a document that omits Kr runs 1.005,
/// where VesselParams defaults to 8 pi 0.04.
struct VesselSpec {
  double length = 1.0;
  double A0 = 0.5;
  double beta = 1.0e5;
  double rho = 1.06;
  double Kr = 1.005;
  std::size_t elements = 8;
  int order = 4;
};

/// Pulsatile prescribed inflow Q(t) = q_mean + q_amp sin(2 pi freq t).
struct InletSpec {
  int vessel = 0;
  double q_mean = 5.0;
  double q_amp = 0.0;
  double freq = 1.0;
};

/// RCR windkessel outflow.
struct OutletSpec {
  int vessel = 0;
  double rp = 100.0;
  double rd = 1000.0;
  double c = 1e-4;
};

struct AttachmentSpec {
  int vessel = 0;
  std::string end = "right";  ///< "left" | "right"
};

struct NetworkSpec {
  std::vector<VesselSpec> vessels;
  std::vector<std::vector<AttachmentSpec>> junctions;
  std::vector<InletSpec> inlets;
  std::vector<OutletSpec> outlets;
  double dt = 0.0;  ///< 0 = CFL-suggested
  double cfl = 0.3;
  std::int64_t steps_per_interval = 10;
};

/// A complete scenario. `kind` selects the solver stack:
///   "cdc"   — 2D SEM channel + embedded DPD box (quickstart family)
///   "cdc3d" — 3D SEM box + embedded DPD box (coupled3d family)
///   "net1d" — 1D arterial network (nektar1d)
/// ("net1d2d" is a reserved kind for a later change.)
struct Scenario {
  std::int64_t version = kSchemaVersion;
  std::string name;
  std::string kind = "cdc";
  MeshSpec mesh;
  Mesh3dSpec mesh3d;
  SemSpec sem;
  DpdSpec dpd;
  PlateletSpec platelets;
  /// Inflow/outflow flux BC (Lei-Fedosov-Karniadakis). target_velocity
  /// stays empty here: the coupler sets it.
  dpd::FlowBcParams flow_bc{.relax = 0.3};
  CouplingSpec coupling;
  /// DPD velocity-field sampler (bin grid over the box).
  dpd::SamplerParams sampler{.nx = 1, .ny = 1, .nz = 10};
  TimeSpec time;
  CheckpointSpec checkpoint;
  NetworkSpec network;
};

/// Parse + validate a scenario document. Throws JsonError with a "$...."
/// path on unknown keys, type mismatches and semantic violations.
Scenario parse_scenario(const Json& doc);
Scenario parse_scenario_text(std::string_view text);
/// Read + parse a scenario file; errors are prefixed with the path.
Scenario load_scenario_file(const std::string& path);

/// Canonical document for a scenario (only the sections its kind uses).
Json serialize_scenario(const Scenario& sc);
/// serialize + canonical dump. parse(scenario_to_json(sc)) re-emits the
/// exact same bytes (the round-trip tests pin this).
std::string scenario_to_json(const Scenario& sc);
/// A mesh spec's canonical text: the SharedTables and warm-start key.
std::string mesh_key(const MeshSpec& m);
std::string mesh_key(const Mesh3dSpec& m);

/// Semantic validation for programmatically built scenarios: reads back
/// serialize_scenario(sc), so each key's range is checked as a parsed
/// document's is, then the rules that span keys (in-range indices, regions
/// inside the mesh, sizes an int or a uint32 gid holds...).
void validate_scenario(const Scenario& sc);

}  // namespace scenario
