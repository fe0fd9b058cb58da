#include "scenario/schema.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "dpd/neighbor.hpp"
#include "scenario/keys.hpp"

namespace scenario {

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

/// The rules that read two or more values. The reader has already checked
/// each key against its own range (keys.hpp), so every size and axis here is
/// in range.
void check_rules(const Scenario& sc) {
  check(sc.checkpoint.every == 0 || !sc.checkpoint.dir.empty(), "$.checkpoint.dir",
        "must not be empty when checkpoint.every > 0");
  if (sc.kind == "net1d") {
    const auto& net = sc.network;
    check(!net.vessels.empty(), "$.network.vessels", "at least one vessel required");
    const auto nv = static_cast<std::int64_t>(net.vessels.size());
    const auto vessel_ok = [&](int v) { return v >= 0 && v < nv; };
    for (std::size_t i = 0; i < net.inlets.size(); ++i)
      check(vessel_ok(net.inlets[i].vessel),
            "$.network.inlets[" + std::to_string(i) + "].vessel", "out of range");
    for (std::size_t i = 0; i < net.outlets.size(); ++i)
      check(vessel_ok(net.outlets[i].vessel),
            "$.network.outlets[" + std::to_string(i) + "].vessel", "out of range");
    for (std::size_t i = 0; i < net.junctions.size(); ++i) {
      const std::string p = "$.network.junctions[" + std::to_string(i) + "]";
      check(net.junctions[i].size() >= 2, p, "a junction joins at least 2 ends");
      for (const auto& a : net.junctions[i]) check(vessel_ok(a.vessel), p, "out of range");
    }
    return;
  }
  if (sc.kind == "cdc" && !sc.mesh.cavity.empty()) {
    const auto& m = sc.mesh;
    check_cavity(m.cavity, m.length, "$.mesh.cavity");
    // the mesh rounds the depth to whole element rows of height / ny
    check(m.cavity[2] / (m.height / m.ny) <= std::numeric_limits<int>::max(), "$.mesh.cavity",
          "the depth spans more element rows than an int holds");
  }
  const auto& box = sc.dpd.box;
  // the neighbor grid casts box / (rc + skin) to an int cell count
  for (const double len : box)
    check(len / (sc.dpd.rc + dpd::kDefaultSkin) <= std::numeric_limits<int>::max(), "$.dpd.box",
          "more neighbor cells along an axis than an int holds");
  check(sc.dpd.density * box[0] * box[1] * box[2] <= kMaxParticles, "$.dpd.density",
        "fills the box with more particles than a uint32 gid numbers");
  const auto& geom = sc.dpd.geometry;
  if (geom.kind == "channel_with_cavity_z")
    check_cavity(geom.cavity, box[0], "$.dpd.geometry.cavity");
  else
    check(geom.cavity.empty(), "$.dpd.geometry.cavity",
          "only the channel_with_cavity_z geometry has a cavity");
  // fill() keeps positions with wall distance > margin: half the channel
  // height or more fills nothing
  const bool channel = geom.kind != "none";
  check(!channel || sc.dpd.fill_margin < geom.height / 2, "$.dpd.fill_margin",
        "must be < dpd.geometry.height / 2, or the channel is left empty");
  const auto& fb = sc.flow_bc;
  const auto axis = static_cast<std::size_t>(fb.axis);
  // FlowBc deletes only positions outside [0, L] along the axis: nothing
  // leaves through a periodic axis or a channel wall, yet insertion runs
  check(!sc.dpd.periodic[axis], "$.flow_bc.axis",
        "is periodic in dpd.periodic: the flow needs an open inlet and outlet");
  check(!(channel && axis == 2), "$.flow_bc.axis",
        "is the channel's wall-normal axis (z): the flow needs an open inlet and outlet");
  check(fb.buffer_len < box[axis], "$.flow_bc.buffer_len", "must be < dpd.box[axis]");
  const double cross_section = box[(axis + 1) % 3] * box[(axis + 2) % 3];
  check(fb.density * fb.buffer_len * cross_section <= kMaxParticles, "$.flow_bc.density",
        "fills the buffer with more particles than a uint32 gid numbers");
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
  // a net1d run never samples, so only a coupled kind bounds sample_from
  check(sc.time.sample_from >= 0, "$.time.sample_from", "must be >= 0");
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
  check_rules(sc);
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

// The bounds are checked by the reader, so a built scenario is checked by
// reading back its own document.
void validate_scenario(const Scenario& sc) { parse_scenario(serialize_scenario(sc)); }

}  // namespace scenario
