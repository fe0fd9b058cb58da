#include "scenario/schema.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "dpd/neighbor.hpp"
#include "scenario/fields.hpp"
#include "sem/evaluate.hpp"

// ---- one key list per struct, in document order ---------------------------
// from_json / to_json find these by argument-dependent lookup, which
// searches only the struct's own namespace (and no unnamed one): the solver
// structs' lists live in theirs.

namespace coupling {

auto fields(const ScaleMap*) {
  using S = ScaleMap;
  using scenario::Field;
  return std::tuple{Field{"L_ns", &S::L_ns}, Field{"L_dpd", &S::L_dpd},
                    Field{"nu_ns", &S::nu_ns}, Field{"nu_dpd", &S::nu_dpd}};
}

}  // namespace coupling

namespace dpd {

auto fields(const FlowBcParams*) {
  using S = FlowBcParams;
  using scenario::Field;
  return std::tuple{Field{"axis", &S::axis}, Field{"buffer_len", &S::buffer_len},
                    Field{"density", &S::density}, Field{"relax", &S::relax},
                    Field{"seed", &S::seed}};
}

auto fields(const SamplerParams*) {
  using S = SamplerParams;
  using scenario::Field;
  return std::tuple{Field{"nx", &S::nx}, Field{"ny", &S::ny}, Field{"nz", &S::nz}};
}

}  // namespace dpd

namespace scenario {

auto fields(const MeshSpec*) {
  using S = MeshSpec;
  return std::tuple{Field{"length", &S::length}, Field{"height", &S::height},
                    Field{"nx", &S::nx},         Field{"ny", &S::ny},
                    Field{"order", &S::order},   Field{"cavity", &S::cavity}};
}

auto fields(const Mesh3dSpec*) {
  using S = Mesh3dSpec;
  return std::tuple{Field{"lx", &S::lx}, Field{"ly", &S::ly}, Field{"lz", &S::lz},
                    Field{"nx", &S::nx}, Field{"ny", &S::ny}, Field{"nz", &S::nz},
                    Field{"order", &S::order}};
}

auto fields(const SemSpec*) {
  using S = SemSpec;
  return std::tuple{Field{"nu", &S::nu}, Field{"dt", &S::dt},
                    Field{"time_order", &S::time_order}, Field{"inlet_umax", &S::inlet_umax},
                    Field{"inlet_pulse", &S::inlet_pulse}};
}

auto fields(const DpdGeometrySpec*) {
  using S = DpdGeometrySpec;
  return std::tuple{Field{"kind", &S::kind}, Field{"height", &S::height},
                    Field{"cavity", &S::cavity}};
}

auto fields(const DpdSpec*) {
  using S = DpdSpec;
  return std::tuple{Field{"box", &S::box}, Field{"periodic", &S::periodic}, Field{"rc", &S::rc},
                    Field{"kBT", &S::kBT}, Field{"dt", &S::dt}, Field{"density", &S::density},
                    Field{"seed", &S::seed}, Field{"fill_margin", &S::fill_margin},
                    Field{"geometry", &S::geometry}};
}

auto fields(const PlateletSpec*) {
  using S = PlateletSpec;
  return std::tuple{Field{"count", &S::count}, Field{"trigger_distance", &S::trigger_distance},
                    Field{"activation_delay", &S::activation_delay},
                    Field{"bind_distance", &S::bind_distance}};
}

auto fields(const CouplingSpec*) {
  using S = CouplingSpec;
  return std::tuple{Field{"scales", &S::scales},
                    Field{"exchange_every_ns", &S::exchange_every_ns},
                    Field{"dpd_per_ns", &S::dpd_per_ns}, Field{"region", &S::region}};
}

auto fields(const TimeSpec*) {
  using S = TimeSpec;
  return std::tuple{Field{"intervals", &S::intervals},
                    Field{"develop_steps", &S::develop_steps},
                    Field{"develop_tol", &S::develop_tol},
                    Field{"sample_from", &S::sample_from}};
}

auto fields(const CheckpointSpec*) {
  using S = CheckpointSpec;
  return std::tuple{Field{"every", &S::every}, Field{"dir", &S::dir}};
}

auto fields(const VesselSpec*) {
  using S = VesselSpec;
  return std::tuple{Field{"length", &S::length}, Field{"A0", &S::A0}, Field{"beta", &S::beta},
                    Field{"rho", &S::rho}, Field{"Kr", &S::Kr}, Field{"elements", &S::elements},
                    Field{"order", &S::order}};
}

auto fields(const InletSpec*) {
  using S = InletSpec;
  return std::tuple{Field{"vessel", &S::vessel}, Field{"q_mean", &S::q_mean},
                    Field{"q_amp", &S::q_amp}, Field{"freq", &S::freq}};
}

auto fields(const OutletSpec*) {
  using S = OutletSpec;
  return std::tuple{Field{"vessel", &S::vessel}, Field{"rp", &S::rp}, Field{"rd", &S::rd},
                    Field{"c", &S::c}};
}

auto fields(const AttachmentSpec*) {
  using S = AttachmentSpec;
  return std::tuple{Field{"vessel", &S::vessel}, Field{"end", &S::end}};
}

auto fields(const NetworkSpec*) {
  using S = NetworkSpec;
  return std::tuple{Field{"vessels", &S::vessels}, Field{"junctions", &S::junctions},
                    Field{"inlets", &S::inlets}, Field{"outlets", &S::outlets},
                    Field{"dt", &S::dt}, Field{"cfl", &S::cfl},
                    Field{"steps_per_interval", &S::steps_per_interval}};
}

namespace {

/// The keys every document starts with; `kind` then picks the sections.
auto header() {
  return std::tuple{Field{"version", &Scenario::version, Use::Required},
                    Field{"name", &Scenario::name},
                    Field{"kind", &Scenario::kind, Use::Required}};
}

/// The sections a kind reads and writes, in document order.
auto sections(const std::string& kind) {
  const bool cdc = kind == "cdc", cdc3d = kind == "cdc3d", net1d = kind == "net1d";
  const bool coupled = cdc || cdc3d;
  const auto in = [](bool used, Use use = Use::Optional) { return used ? use : Use::Absent; };
  using S = Scenario;
  return std::tuple{Field{"mesh", &S::mesh, in(cdc)}, Field{"mesh3d", &S::mesh3d, in(cdc3d)},
                    Field{"sem", &S::sem, in(coupled)}, Field{"dpd", &S::dpd, in(coupled)},
                    Field{"platelets", &S::platelets, in(coupled)},
                    Field{"flow_bc", &S::flow_bc, in(coupled)},
                    Field{"coupling", &S::coupling, in(coupled, Use::Required)},
                    Field{"sampler", &S::sampler, in(coupled)},
                    Field{"network", &S::network, in(net1d, Use::Required)},
                    Field{"time", &S::time, in(coupled || net1d)},
                    Field{"checkpoint", &S::checkpoint, in(coupled || net1d)}};
}

}  // namespace

// ---- scenario --------------------------------------------------------------

Scenario parse_scenario(const Json& doc) {
  Scenario sc;
  Fields f(doc, "$");
  read_fields(f, sc, header());
  if (sc.version != kSchemaVersion)
    fail("$.version", "unsupported schema version " + std::to_string(sc.version) +
                          " (this build reads version " + std::to_string(kSchemaVersion) + ")");
  if (sc.kind == "net1d2d")
    fail("$.kind", "kind \"" + sc.kind + "\" is reserved but not yet runnable");
  if (sc.kind != "cdc" && sc.kind != "cdc3d" && sc.kind != "net1d")
    fail("$.kind", "unknown kind \"" + sc.kind + "\" (known: cdc, cdc3d, net1d)");
  // the struct default is the 2D region
  if (sc.kind == "cdc3d") sc.coupling.region = {1.5, 2.5, 0.25, 0.75, 0.0, 1.0};
  read_fields(f, sc, sections(sc.kind));
  f.finish();
  validate_scenario(sc);
  return sc;
}

Json serialize_scenario(const Scenario& sc) {
  Json o = Json::object();
  write_fields(o, sc, header());
  write_fields(o, sc, sections(sc.kind));
  return o;
}

std::string scenario_to_json(const Scenario& sc) {
  return serialize_scenario(sc).dump();
}

std::string mesh_key(const MeshSpec& m) { return to_json(m).dump(); }

std::string mesh_key(const Mesh3dSpec& m) { return to_json(m).dump(); }

Scenario parse_scenario_text(std::string_view text) {
  return parse_scenario(Json::parse(text));
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError(path + ": cannot open scenario file");
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return parse_scenario_text(ss.str());
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

namespace {

void check(bool ok, const std::string& path, const std::string& what) {
  if (!ok) fail(path, what);
}

/// Every DPD particle carries a uint32 gid.
constexpr double kMaxParticles = std::numeric_limits<std::uint32_t>::max();

/// [x0, x1, depth] with 0 <= x0 < x1 <= x_max and depth > 0.
void check_cavity(const std::vector<double>& c, double x_max, const std::string& path) {
  check(c.size() == 3, path, "expected [x0, x1, depth], got " + std::to_string(c.size()) +
                                 " numbers");
  check(c[0] >= 0 && c[1] > c[0] && c[1] <= x_max && c[2] > 0, path,
        "need 0 <= x0 < x1 <= " + std::to_string(x_max) + " and depth > 0");
}

}  // namespace

void validate_scenario(const Scenario& sc) {
  check(sc.time.intervals >= 0, "$.time.intervals", "must be >= 0");
  check(sc.time.develop_steps >= 0, "$.time.develop_steps", "must be >= 0");
  check(sc.time.develop_tol >= 0.0, "$.time.develop_tol", "must be >= 0");
  check(sc.checkpoint.every >= 0, "$.checkpoint.every", "must be >= 0 (0 = never)");
  check(sc.checkpoint.every == 0 || !sc.checkpoint.dir.empty(), "$.checkpoint.dir",
        "must not be empty when checkpoint.every > 0");
  if (sc.kind == "cdc" || sc.kind == "cdc3d") {
    const std::string max_order = "must be <= " + std::to_string(sem::kMaxOrder);
    if (sc.kind == "cdc") {
      const auto& m = sc.mesh;
      check(m.length > 0 && m.height > 0, "$.mesh", "non-positive extent");
      check(m.nx >= 1, "$.mesh.nx", "must be >= 1");
      check(m.ny >= 1, "$.mesh.ny", "must be >= 1");
      check(m.order >= 1, "$.mesh.order", "must be >= 1");
      check(m.order <= sem::kMaxOrder, "$.mesh.order", max_order);
      if (!m.cavity.empty()) {
        check_cavity(m.cavity, m.length, "$.mesh.cavity");
        // the mesh rounds the depth to whole element rows of height / ny
        check(m.cavity[2] / (m.height / m.ny) <= std::numeric_limits<int>::max(),
              "$.mesh.cavity", "the depth spans more element rows than an int holds");
      }
    } else {
      const auto& m = sc.mesh3d;
      check(m.lx > 0 && m.ly > 0 && m.lz > 0, "$.mesh3d", "non-positive extent");
      check(m.nx >= 1, "$.mesh3d.nx", "must be >= 1");
      check(m.ny >= 1, "$.mesh3d.ny", "must be >= 1");
      check(m.nz >= 1, "$.mesh3d.nz", "must be >= 1");
      check(m.order >= 1, "$.mesh3d.order", "must be >= 1");
      check(m.order <= sem::kMaxOrder, "$.mesh3d.order", max_order);
    }
    check(sc.sem.nu > 0, "$.sem.nu", "must be > 0");
    check(sc.sem.dt > 0, "$.sem.dt", "must be > 0");
    check(sc.sem.time_order == 1 || sc.sem.time_order == 2, "$.sem.time_order",
          "must be 1 or 2");
    check(sc.sem.inlet_pulse >= 0 && sc.sem.inlet_pulse <= 1, "$.sem.inlet_pulse",
          "must be in [0, 1]");
    const auto& box = sc.dpd.box;
    check(box[0] > 0 && box[1] > 0 && box[2] > 0, "$.dpd.box", "non-positive box");
    check(sc.dpd.rc > 0, "$.dpd.rc", "must be > 0");
    // the neighbor grid casts box / (rc + skin) to an int cell count
    for (const double len : box)
      check(len / (sc.dpd.rc + dpd::kDefaultSkin) <= std::numeric_limits<int>::max(),
            "$.dpd.box", "more neighbor cells along an axis than an int holds");
    check(sc.dpd.kBT >= 0, "$.dpd.kBT", "must be >= 0");
    check(sc.dpd.dt > 0, "$.dpd.dt", "must be > 0");
    check(sc.dpd.density > 0, "$.dpd.density", "must be > 0");
    check(sc.dpd.density * box[0] * box[1] * box[2] <= kMaxParticles, "$.dpd.density",
          "fills the box with more particles than a uint32 gid numbers");
    const auto& geom = sc.dpd.geometry;
    const bool cavity_z = geom.kind == "channel_with_cavity_z";
    check(geom.kind == "none" || geom.kind == "channel_z" || cavity_z, "$.dpd.geometry.kind",
          "unknown geometry \"" + geom.kind +
              "\" (known: none, channel_z, channel_with_cavity_z)");
    check(geom.height > 0, "$.dpd.geometry.height", "must be > 0");
    if (cavity_z)
      check_cavity(geom.cavity, box[0], "$.dpd.geometry.cavity");
    else
      check(geom.cavity.empty(), "$.dpd.geometry.cavity",
            "only the channel_with_cavity_z geometry has a cavity");
    // fill() keeps positions with wall distance > margin: a negative margin
    // fills the solid, half the channel height or more fills nothing
    const bool channel = geom.kind != "none";
    check(sc.dpd.fill_margin >= 0, "$.dpd.fill_margin", "must be >= 0");
    check(!channel || sc.dpd.fill_margin < geom.height / 2, "$.dpd.fill_margin",
          "must be < dpd.geometry.height / 2, or the channel is left empty");
    const auto& pl = sc.platelets;
    check(pl.count >= 0, "$.platelets.count", "must be >= 0");
    check(pl.trigger_distance >= 0, "$.platelets.trigger_distance", "must be >= 0");
    check(pl.activation_delay >= 0, "$.platelets.activation_delay", "must be >= 0");
    check(pl.bind_distance >= 0, "$.platelets.bind_distance", "must be >= 0");
    const auto& fb = sc.flow_bc;
    check(fb.axis >= 0 && fb.axis <= 2, "$.flow_bc.axis", "must be 0, 1 or 2");
    const auto axis = static_cast<std::size_t>(fb.axis);
    // FlowBc deletes only positions outside [0, L] along the axis: nothing
    // leaves through a periodic axis or a channel wall, yet insertion runs
    check(!sc.dpd.periodic[axis], "$.flow_bc.axis",
          "is periodic in dpd.periodic: the flow needs an open inlet and outlet");
    check(!(channel && axis == 2), "$.flow_bc.axis",
          "is the channel's wall-normal axis (z): the flow needs an open inlet and outlet");
    check(fb.buffer_len > 0 && fb.buffer_len < box[axis], "$.flow_bc.buffer_len",
          "must be in (0, dpd.box[axis])");
    check(fb.density > 0, "$.flow_bc.density", "must be > 0");
    const double cross_section = box[(axis + 1) % 3] * box[(axis + 2) % 3];
    check(fb.density * fb.buffer_len * cross_section <= kMaxParticles, "$.flow_bc.density",
          "fills the buffer with more particles than a uint32 gid numbers");
    check(fb.relax >= 0 && fb.relax <= 1, "$.flow_bc.relax", "must be in [0, 1]");
    const auto& scales = sc.coupling.scales;
    check(scales.L_ns > 0, "$.coupling.scales.L_ns", "must be > 0");
    check(scales.L_dpd > 0, "$.coupling.scales.L_dpd", "must be > 0");
    check(scales.nu_ns > 0, "$.coupling.scales.nu_ns", "must be > 0");
    check(scales.nu_dpd > 0, "$.coupling.scales.nu_dpd", "must be > 0");
    check(sc.coupling.exchange_every_ns >= 1, "$.coupling.exchange_every_ns", "must be >= 1");
    check(sc.coupling.dpd_per_ns >= 1, "$.coupling.dpd_per_ns", "must be >= 1");
    const auto& r = sc.coupling.region;
    const std::size_t region_len = sc.kind == "cdc" ? 4 : 6;
    check(r.size() == region_len, "$.coupling.region",
          "expected " + std::to_string(region_len) + " numbers, got " + std::to_string(r.size()));
    for (std::size_t i = 0; i + 1 < r.size(); i += 2)
      check(r[i + 1] > r[i], "$.coupling.region",
            "degenerate region: need max > min on every axis");
    // inside the mesh's bounding box; in 2D the sac adds whole element
    // rows, rounded as mesh::QuadMesh::channel_with_cavity rounds them
    const auto& m = sc.mesh;
    const auto& h = sc.mesh3d;
    const double dy = m.height / m.ny;
    const long rows = m.cavity.empty() ? 0 : std::max(1L, std::lround(m.cavity[2] / dy));
    std::vector<double> mesh_box = {0, h.lx, 0, h.ly, 0, h.lz};
    if (sc.kind == "cdc") mesh_box = {0, m.length, 0, m.height + rows * dy};
    std::string box_text = to_json(mesh_box).dump();
    box_text.pop_back();  // dump()'s newline
    for (std::size_t i = 0; i + 1 < r.size(); i += 2)
      check(r[i] >= mesh_box[i] && r[i + 1] <= mesh_box[i + 1], "$.coupling.region",
            "outside the continuum mesh's bounding box " + box_text);
    check(sc.sampler.nx >= 1, "$.sampler.nx", "must be >= 1");
    check(sc.sampler.ny >= 1, "$.sampler.ny", "must be >= 1");
    check(sc.sampler.nz >= 1, "$.sampler.nz", "must be >= 1");
    check(sc.time.sample_from >= 0, "$.time.sample_from", "must be >= 0");
  } else if (sc.kind == "net1d") {
    check(!sc.network.vessels.empty(), "$.network.vessels", "at least one vessel required");
    const auto nv = static_cast<std::int64_t>(sc.network.vessels.size());
    for (std::size_t i = 0; i < sc.network.vessels.size(); ++i) {
      const auto& v = sc.network.vessels[i];
      const std::string p = "$.network.vessels[" + std::to_string(i) + "]";
      check(v.length > 0 && v.A0 > 0 && v.beta > 0 && v.rho > 0, p, "non-positive parameter");
      check(v.elements >= 1, p, "need elements >= 1");
      check(v.order >= 1, p + ".order", "must be >= 1");
    }
    const auto vessel_ok = [&](int v) { return v >= 0 && v < nv; };
    for (std::size_t i = 0; i < sc.network.inlets.size(); ++i)
      check(vessel_ok(sc.network.inlets[i].vessel),
            "$.network.inlets[" + std::to_string(i) + "].vessel", "out of range");
    for (std::size_t i = 0; i < sc.network.outlets.size(); ++i)
      check(vessel_ok(sc.network.outlets[i].vessel),
            "$.network.outlets[" + std::to_string(i) + "].vessel", "out of range");
    for (std::size_t i = 0; i < sc.network.junctions.size(); ++i) {
      const std::string p = "$.network.junctions[" + std::to_string(i) + "]";
      check(sc.network.junctions[i].size() >= 2, p, "a junction joins at least 2 ends");
      for (std::size_t k = 0; k < sc.network.junctions[i].size(); ++k) {
        const auto& a = sc.network.junctions[i][k];
        check(vessel_ok(a.vessel), p, "out of range");
        check(a.end == "left" || a.end == "right", p + "[" + std::to_string(k) + "].end",
              "expected \"left\" or \"right\", got \"" + a.end + "\"");
      }
    }
    check(sc.network.dt >= 0, "$.network.dt", "must be >= 0 (0 = CFL-suggested)");
    check(sc.network.cfl > 0, "$.network.cfl", "must be > 0");
    check(sc.network.steps_per_interval > 0, "$.network.steps_per_interval", "must be > 0");
  }
}

}  // namespace scenario
