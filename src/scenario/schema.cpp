#include "scenario/schema.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "sem/evaluate.hpp"

namespace scenario {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw JsonError(path + ": " + what);
}

double as_num(const Json& v, const std::string& path) {
  if (!v.is_number()) fail(path, std::string("expected number, got ") + Json::kind_name(v.kind()));
  return v.as_number();
}

std::int64_t as_int(const Json& v, const std::string& path) {
  const double d = as_num(v, path);
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) fail(path, "expected integer, got " + std::to_string(d));
  return i;
}

std::string as_str(const Json& v, const std::string& path) {
  if (!v.is_string()) fail(path, std::string("expected string, got ") + Json::kind_name(v.kind()));
  return v.as_string();
}

bool as_boolean(const Json& v, const std::string& path) {
  if (!v.is_bool()) fail(path, std::string("expected bool, got ") + Json::kind_name(v.kind()));
  return v.as_bool();
}

/// Strict object cursor: every key must be consumed by req_* / opt_*;
/// finish() reports leftovers as unknown-key errors with the full path.
class Fields {
 public:
  Fields(const Json& obj, std::string path) : obj_(&obj), path_(std::move(path)) {
    if (!obj.is_object())
      fail(path_, std::string("expected object, got ") + Json::kind_name(obj.kind()));
  }

  std::string sub(const char* key) const { return path_ + "." + key; }

  const Json& req(const char* key) {
    mark(key);
    const Json* v = obj_->find(key);
    if (!v) fail(path_, std::string("missing required key \"") + key + "\"");
    return *v;
  }

  const Json* opt(const char* key) {
    mark(key);
    return obj_->find(key);
  }

  double req_num(const char* key) { return as_num(req(key), sub(key)); }
  std::int64_t req_int(const char* key) { return as_int(req(key), sub(key)); }
  std::string req_str(const char* key) { return as_str(req(key), sub(key)); }

  double opt_num(const char* key, double def) {
    const Json* v = opt(key);
    return v ? as_num(*v, sub(key)) : def;
  }
  std::int64_t opt_int(const char* key, std::int64_t def) {
    const Json* v = opt(key);
    return v ? as_int(*v, sub(key)) : def;
  }
  std::string opt_str(const char* key, std::string def) {
    const Json* v = opt(key);
    return v ? as_str(*v, sub(key)) : def;
  }

  std::vector<double> opt_num_list(const char* key, std::size_t n, std::vector<double> def) {
    const Json* v = opt(key);
    if (!v) return def;
    const std::string p = sub(key);
    if (!v->is_array())
      fail(p, std::string("expected array, got ") + Json::kind_name(v->kind()));
    const auto& e = v->elements();
    if (e.size() != n)
      fail(p, "expected " + std::to_string(n) + " numbers, got " + std::to_string(e.size()));
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = as_num(e[i], p + "[" + std::to_string(i) + "]");
    return out;
  }

  std::array<bool, 3> opt_bool3(const char* key, std::array<bool, 3> def) {
    const Json* v = opt(key);
    if (!v) return def;
    const std::string p = sub(key);
    if (!v->is_array() || v->elements().size() != 3) fail(p, "expected array of 3 bools");
    std::array<bool, 3> out{};
    for (std::size_t i = 0; i < 3; ++i)
      out[i] = as_boolean(v->elements()[i], p + "[" + std::to_string(i) + "]");
    return out;
  }

  /// Unknown keys are hard errors: list them plus the known set, so a typo'd
  /// knob points straight at its correct spelling.
  void finish() const {
    for (const auto& [k, v] : obj_->members()) {
      if (std::find(seen_.begin(), seen_.end(), k) != seen_.end()) continue;
      std::string known;
      for (const auto& s : seen_) {
        if (!known.empty()) known += ", ";
        known += s;
      }
      fail(path_ + "." + k, "unknown key (known keys: " + known + ")");
    }
  }

 private:
  void mark(const char* key) {
    if (std::find(seen_.begin(), seen_.end(), key) == seen_.end()) seen_.emplace_back(key);
  }

  const Json* obj_;
  std::string path_;
  std::vector<std::string> seen_;
};

Json num3(const std::array<double, 3>& a) {
  Json j = Json::array();
  for (double v : a) j.push(v);
  return j;
}

Json bool3(const std::array<bool, 3>& a) {
  Json j = Json::array();
  for (bool v : a) j.push(v);
  return j;
}

Json num_list(const std::vector<double>& a) {
  Json j = Json::array();
  for (double v : a) j.push(v);
  return j;
}

// ---- section parse/serialize pairs ----------------------------------------
// (paired key sets are checked by the scenario-schema-sync lint rule)

MeshSpec parse_mesh(const Json& v, const std::string& path) {
  MeshSpec s;
  Fields f(v, path);
  s.length = f.opt_num("length", s.length);
  s.height = f.opt_num("height", s.height);
  s.nx = f.opt_int("nx", s.nx);
  s.ny = f.opt_int("ny", s.ny);
  s.order = f.opt_int("order", s.order);
  f.finish();
  return s;
}

Json serialize_mesh(const MeshSpec& s) {
  Json o = Json::object();
  o.set("length", s.length);
  o.set("height", s.height);
  o.set("nx", s.nx);
  o.set("ny", s.ny);
  o.set("order", s.order);
  return o;
}

Mesh3dSpec parse_mesh3d(const Json& v, const std::string& path) {
  Mesh3dSpec s;
  Fields f(v, path);
  s.lx = f.opt_num("lx", s.lx);
  s.ly = f.opt_num("ly", s.ly);
  s.lz = f.opt_num("lz", s.lz);
  s.nx = f.opt_int("nx", s.nx);
  s.ny = f.opt_int("ny", s.ny);
  s.nz = f.opt_int("nz", s.nz);
  s.order = f.opt_int("order", s.order);
  f.finish();
  return s;
}

Json serialize_mesh3d(const Mesh3dSpec& s) {
  Json o = Json::object();
  o.set("lx", s.lx);
  o.set("ly", s.ly);
  o.set("lz", s.lz);
  o.set("nx", s.nx);
  o.set("ny", s.ny);
  o.set("nz", s.nz);
  o.set("order", s.order);
  return o;
}

SemSpec parse_sem(const Json& v, const std::string& path) {
  SemSpec s;
  Fields f(v, path);
  s.nu = f.opt_num("nu", s.nu);
  s.dt = f.opt_num("dt", s.dt);
  s.time_order = f.opt_int("time_order", s.time_order);
  s.inlet_umax = f.opt_num("inlet_umax", s.inlet_umax);
  f.finish();
  return s;
}

Json serialize_sem(const SemSpec& s) {
  Json o = Json::object();
  o.set("nu", s.nu);
  o.set("dt", s.dt);
  o.set("time_order", s.time_order);
  o.set("inlet_umax", s.inlet_umax);
  return o;
}

DpdGeometrySpec parse_dpd_geometry(const Json& v, const std::string& path) {
  DpdGeometrySpec s;
  Fields f(v, path);
  s.kind = f.opt_str("kind", s.kind);
  s.height = f.opt_num("height", s.height);
  f.finish();
  return s;
}

Json serialize_dpd_geometry(const DpdGeometrySpec& s) {
  Json o = Json::object();
  o.set("kind", s.kind);
  o.set("height", s.height);
  return o;
}

DpdSpec parse_dpd(const Json& v, const std::string& path) {
  DpdSpec s;
  Fields f(v, path);
  const auto box = f.opt_num_list("box", 3, {s.box[0], s.box[1], s.box[2]});
  s.box = {box[0], box[1], box[2]};
  s.periodic = f.opt_bool3("periodic", s.periodic);
  s.rc = f.opt_num("rc", s.rc);
  s.kBT = f.opt_num("kBT", s.kBT);
  s.dt = f.opt_num("dt", s.dt);
  s.density = f.opt_num("density", s.density);
  s.seed = f.opt_int("seed", s.seed);
  s.fill_margin = f.opt_num("fill_margin", s.fill_margin);
  if (const Json* g = f.opt("geometry")) s.geometry = parse_dpd_geometry(*g, f.sub("geometry"));
  f.finish();
  return s;
}

Json serialize_dpd(const DpdSpec& s) {
  Json o = Json::object();
  o.set("box", num3(s.box));
  o.set("periodic", bool3(s.periodic));
  o.set("rc", s.rc);
  o.set("kBT", s.kBT);
  o.set("dt", s.dt);
  o.set("density", s.density);
  o.set("seed", s.seed);
  o.set("fill_margin", s.fill_margin);
  o.set("geometry", serialize_dpd_geometry(s.geometry));
  return o;
}

FlowBcSpec parse_flow_bc(const Json& v, const std::string& path) {
  FlowBcSpec s;
  Fields f(v, path);
  s.axis = f.opt_int("axis", s.axis);
  s.buffer_len = f.opt_num("buffer_len", s.buffer_len);
  s.density = f.opt_num("density", s.density);
  s.relax = f.opt_num("relax", s.relax);
  s.seed = f.opt_int("seed", s.seed);
  f.finish();
  return s;
}

Json serialize_flow_bc(const FlowBcSpec& s) {
  Json o = Json::object();
  o.set("axis", s.axis);
  o.set("buffer_len", s.buffer_len);
  o.set("density", s.density);
  o.set("relax", s.relax);
  o.set("seed", s.seed);
  return o;
}

ScalesSpec parse_scales(const Json& v, const std::string& path) {
  ScalesSpec s;
  Fields f(v, path);
  s.L_ns = f.opt_num("L_ns", s.L_ns);
  s.L_dpd = f.opt_num("L_dpd", s.L_dpd);
  s.nu_ns = f.opt_num("nu_ns", s.nu_ns);
  s.nu_dpd = f.opt_num("nu_dpd", s.nu_dpd);
  f.finish();
  return s;
}

Json serialize_scales(const ScalesSpec& s) {
  Json o = Json::object();
  o.set("L_ns", s.L_ns);
  o.set("L_dpd", s.L_dpd);
  o.set("nu_ns", s.nu_ns);
  o.set("nu_dpd", s.nu_dpd);
  return o;
}

CouplingSpec parse_coupling(const Json& v, const std::string& path, std::size_t region_len) {
  CouplingSpec s;
  if (region_len == 6) s.region = {1.5, 2.5, 0.25, 0.75, 0.0, 1.0};
  Fields f(v, path);
  if (const Json* sc = f.opt("scales")) s.scales = parse_scales(*sc, f.sub("scales"));
  s.exchange_every_ns = f.opt_int("exchange_every_ns", s.exchange_every_ns);
  s.dpd_per_ns = f.opt_int("dpd_per_ns", s.dpd_per_ns);
  s.region = f.opt_num_list("region", region_len, s.region);
  f.finish();
  return s;
}

Json serialize_coupling(const CouplingSpec& s) {
  Json o = Json::object();
  o.set("scales", serialize_scales(s.scales));
  o.set("exchange_every_ns", s.exchange_every_ns);
  o.set("dpd_per_ns", s.dpd_per_ns);
  o.set("region", num_list(s.region));
  return o;
}

SamplerSpec parse_sampler(const Json& v, const std::string& path) {
  SamplerSpec s;
  Fields f(v, path);
  s.nx = f.opt_int("nx", s.nx);
  s.ny = f.opt_int("ny", s.ny);
  s.nz = f.opt_int("nz", s.nz);
  f.finish();
  return s;
}

Json serialize_sampler(const SamplerSpec& s) {
  Json o = Json::object();
  o.set("nx", s.nx);
  o.set("ny", s.ny);
  o.set("nz", s.nz);
  return o;
}

TimeSpec parse_time(const Json& v, const std::string& path) {
  TimeSpec s;
  Fields f(v, path);
  s.intervals = f.opt_int("intervals", s.intervals);
  s.develop_steps = f.opt_int("develop_steps", s.develop_steps);
  s.develop_tol = f.opt_num("develop_tol", s.develop_tol);
  s.sample_from = f.opt_int("sample_from", s.sample_from);
  f.finish();
  return s;
}

Json serialize_time(const TimeSpec& s) {
  Json o = Json::object();
  o.set("intervals", s.intervals);
  o.set("develop_steps", s.develop_steps);
  o.set("develop_tol", s.develop_tol);
  o.set("sample_from", s.sample_from);
  return o;
}

CheckpointSpec parse_checkpoint(const Json& v, const std::string& path) {
  CheckpointSpec s;
  Fields f(v, path);
  s.every = f.opt_int("every", s.every);
  s.dir = f.opt_str("dir", s.dir);
  f.finish();
  return s;
}

Json serialize_checkpoint(const CheckpointSpec& s) {
  Json o = Json::object();
  o.set("every", s.every);
  o.set("dir", s.dir);
  return o;
}

VesselSpec parse_vessel(const Json& v, const std::string& path) {
  VesselSpec s;
  Fields f(v, path);
  s.length = f.opt_num("length", s.length);
  s.A0 = f.opt_num("A0", s.A0);
  s.beta = f.opt_num("beta", s.beta);
  s.rho = f.opt_num("rho", s.rho);
  s.Kr = f.opt_num("Kr", s.Kr);
  s.elements = f.opt_int("elements", s.elements);
  s.order = f.opt_int("order", s.order);
  f.finish();
  return s;
}

Json serialize_vessel(const VesselSpec& s) {
  Json o = Json::object();
  o.set("length", s.length);
  o.set("A0", s.A0);
  o.set("beta", s.beta);
  o.set("rho", s.rho);
  o.set("Kr", s.Kr);
  o.set("elements", s.elements);
  o.set("order", s.order);
  return o;
}

InletSpec parse_inlet(const Json& v, const std::string& path) {
  InletSpec s;
  Fields f(v, path);
  s.vessel = f.opt_int("vessel", s.vessel);
  s.q_mean = f.opt_num("q_mean", s.q_mean);
  s.q_amp = f.opt_num("q_amp", s.q_amp);
  s.freq = f.opt_num("freq", s.freq);
  f.finish();
  return s;
}

Json serialize_inlet(const InletSpec& s) {
  Json o = Json::object();
  o.set("vessel", s.vessel);
  o.set("q_mean", s.q_mean);
  o.set("q_amp", s.q_amp);
  o.set("freq", s.freq);
  return o;
}

OutletSpec parse_outlet(const Json& v, const std::string& path) {
  OutletSpec s;
  Fields f(v, path);
  s.vessel = f.opt_int("vessel", s.vessel);
  s.rp = f.opt_num("rp", s.rp);
  s.rd = f.opt_num("rd", s.rd);
  s.c = f.opt_num("c", s.c);
  f.finish();
  return s;
}

Json serialize_outlet(const OutletSpec& s) {
  Json o = Json::object();
  o.set("vessel", s.vessel);
  o.set("rp", s.rp);
  o.set("rd", s.rd);
  o.set("c", s.c);
  return o;
}

AttachmentSpec parse_attachment(const Json& v, const std::string& path) {
  AttachmentSpec s;
  Fields f(v, path);
  s.vessel = f.opt_int("vessel", s.vessel);
  s.end = f.opt_str("end", s.end);
  f.finish();
  if (s.end != "left" && s.end != "right")
    fail(path + ".end", "expected \"left\" or \"right\", got \"" + s.end + "\"");
  return s;
}

Json serialize_attachment(const AttachmentSpec& s) {
  Json o = Json::object();
  o.set("vessel", s.vessel);
  o.set("end", s.end);
  return o;
}

NetworkSpec parse_network(const Json& v, const std::string& path) {
  NetworkSpec s;
  Fields f(v, path);
  if (const Json* vs = f.opt("vessels")) {
    const std::string p = f.sub("vessels");
    if (!vs->is_array()) fail(p, "expected array of vessel objects");
    for (std::size_t i = 0; i < vs->elements().size(); ++i)
      s.vessels.push_back(parse_vessel(vs->elements()[i], p + "[" + std::to_string(i) + "]"));
  }
  if (const Json* js = f.opt("junctions")) {
    const std::string p = f.sub("junctions");
    if (!js->is_array()) fail(p, "expected array of attachment arrays");
    for (std::size_t i = 0; i < js->elements().size(); ++i) {
      const Json& jn = js->elements()[i];
      const std::string pj = p + "[" + std::to_string(i) + "]";
      if (!jn.is_array()) fail(pj, "expected array of attachments");
      std::vector<AttachmentSpec> atts;
      for (std::size_t k = 0; k < jn.elements().size(); ++k)
        atts.push_back(parse_attachment(jn.elements()[k], pj + "[" + std::to_string(k) + "]"));
      s.junctions.push_back(std::move(atts));
    }
  }
  if (const Json* in = f.opt("inlets")) {
    const std::string p = f.sub("inlets");
    if (!in->is_array()) fail(p, "expected array of inlet objects");
    for (std::size_t i = 0; i < in->elements().size(); ++i)
      s.inlets.push_back(parse_inlet(in->elements()[i], p + "[" + std::to_string(i) + "]"));
  }
  if (const Json* out = f.opt("outlets")) {
    const std::string p = f.sub("outlets");
    if (!out->is_array()) fail(p, "expected array of outlet objects");
    for (std::size_t i = 0; i < out->elements().size(); ++i)
      s.outlets.push_back(parse_outlet(out->elements()[i], p + "[" + std::to_string(i) + "]"));
  }
  s.dt = f.opt_num("dt", s.dt);
  s.cfl = f.opt_num("cfl", s.cfl);
  s.steps_per_interval = f.opt_int("steps_per_interval", s.steps_per_interval);
  f.finish();
  return s;
}

Json serialize_network(const NetworkSpec& s) {
  Json o = Json::object();
  Json vessels = Json::array();
  for (const auto& v : s.vessels) vessels.push(serialize_vessel(v));
  o.set("vessels", std::move(vessels));
  Json junctions = Json::array();
  for (const auto& j : s.junctions) {
    Json atts = Json::array();
    for (const auto& a : j) atts.push(serialize_attachment(a));
    junctions.push(std::move(atts));
  }
  o.set("junctions", std::move(junctions));
  Json inlets = Json::array();
  for (const auto& i : s.inlets) inlets.push(serialize_inlet(i));
  o.set("inlets", std::move(inlets));
  Json outlets = Json::array();
  for (const auto& x : s.outlets) outlets.push(serialize_outlet(x));
  o.set("outlets", std::move(outlets));
  o.set("dt", s.dt);
  o.set("cfl", s.cfl);
  o.set("steps_per_interval", s.steps_per_interval);
  return o;
}

}  // namespace

// ---- scenario --------------------------------------------------------------

Scenario parse_scenario(const Json& doc) {
  Scenario sc;
  Fields f(doc, "$");
  sc.version = f.req_int("version");
  if (sc.version != kSchemaVersion)
    fail("$.version", "unsupported schema version " + std::to_string(sc.version) +
                          " (this build reads version " + std::to_string(kSchemaVersion) + ")");
  sc.name = f.opt_str("name", "");
  sc.kind = f.req_str("kind");
  if (sc.kind == "cdc" || sc.kind == "cdc3d") {
    if (sc.kind == "cdc") {
      if (const Json* v = f.opt("mesh")) sc.mesh = parse_mesh(*v, f.sub("mesh"));
    } else {
      if (const Json* v = f.opt("mesh3d")) sc.mesh3d = parse_mesh3d(*v, f.sub("mesh3d"));
    }
    if (const Json* v = f.opt("sem")) sc.sem = parse_sem(*v, f.sub("sem"));
    if (const Json* v = f.opt("dpd")) sc.dpd = parse_dpd(*v, f.sub("dpd"));
    if (const Json* v = f.opt("flow_bc")) sc.flow_bc = parse_flow_bc(*v, f.sub("flow_bc"));
    const std::size_t region_len = sc.kind == "cdc" ? 4 : 6;
    sc.coupling.region.assign(region_len, 0.0);
    sc.coupling = parse_coupling(f.req("coupling"), f.sub("coupling"), region_len);
    if (const Json* v = f.opt("sampler")) sc.sampler = parse_sampler(*v, f.sub("sampler"));
    if (const Json* v = f.opt("time")) sc.time = parse_time(*v, f.sub("time"));
    if (const Json* v = f.opt("checkpoint"))
      sc.checkpoint = parse_checkpoint(*v, f.sub("checkpoint"));
  } else if (sc.kind == "net1d") {
    sc.network = parse_network(f.req("network"), f.sub("network"));
    if (const Json* v = f.opt("time")) sc.time = parse_time(*v, f.sub("time"));
    if (const Json* v = f.opt("checkpoint"))
      sc.checkpoint = parse_checkpoint(*v, f.sub("checkpoint"));
  } else if (sc.kind == "mci" || sc.kind == "net1d2d") {
    fail("$.kind", "kind \"" + sc.kind + "\" is reserved but not yet runnable");
  } else {
    fail("$.kind", "unknown kind \"" + sc.kind + "\" (known: cdc, cdc3d, net1d)");
  }
  f.finish();
  validate_scenario(sc);
  return sc;
}

Json serialize_scenario(const Scenario& sc) {
  Json o = Json::object();
  o.set("version", sc.version);
  o.set("name", sc.name);
  o.set("kind", sc.kind);
  if (sc.kind == "cdc" || sc.kind == "cdc3d") {
    if (sc.kind == "cdc")
      o.set("mesh", serialize_mesh(sc.mesh));
    else
      o.set("mesh3d", serialize_mesh3d(sc.mesh3d));
    o.set("sem", serialize_sem(sc.sem));
    o.set("dpd", serialize_dpd(sc.dpd));
    o.set("flow_bc", serialize_flow_bc(sc.flow_bc));
    o.set("coupling", serialize_coupling(sc.coupling));
    o.set("sampler", serialize_sampler(sc.sampler));
    o.set("time", serialize_time(sc.time));
    o.set("checkpoint", serialize_checkpoint(sc.checkpoint));
  } else if (sc.kind == "net1d") {
    o.set("network", serialize_network(sc.network));
    o.set("time", serialize_time(sc.time));
    o.set("checkpoint", serialize_checkpoint(sc.checkpoint));
  }
  return o;
}

std::string scenario_to_json(const Scenario& sc) {
  return serialize_scenario(sc).dump();
}

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
}  // namespace

void validate_scenario(const Scenario& sc) {
  check(sc.time.intervals >= 0, "$.time.intervals", "must be >= 0");
  check(sc.time.develop_steps >= 0, "$.time.develop_steps", "must be >= 0");
  check(sc.time.develop_tol >= 0.0, "$.time.develop_tol", "must be >= 0");
  if (sc.kind == "cdc" || sc.kind == "cdc3d") {
    const std::string max_order = "must be <= " + std::to_string(sem::kMaxOrder);
    if (sc.kind == "cdc") {
      check(sc.mesh.length > 0 && sc.mesh.height > 0, "$.mesh", "non-positive extent");
      check(sc.mesh.nx > 0 && sc.mesh.ny > 0, "$.mesh", "non-positive element count");
      check(sc.mesh.order >= 1, "$.mesh.order", "must be >= 1");
      check(sc.mesh.order <= sem::kMaxOrder, "$.mesh.order", max_order);
    } else {
      check(sc.mesh3d.lx > 0 && sc.mesh3d.ly > 0 && sc.mesh3d.lz > 0, "$.mesh3d",
            "non-positive extent");
      check(sc.mesh3d.nx > 0 && sc.mesh3d.ny > 0 && sc.mesh3d.nz > 0, "$.mesh3d",
            "non-positive element count");
      check(sc.mesh3d.order >= 1, "$.mesh3d.order", "must be >= 1");
      check(sc.mesh3d.order <= sem::kMaxOrder, "$.mesh3d.order", max_order);
    }
    check(sc.sem.nu > 0, "$.sem.nu", "must be > 0");
    check(sc.sem.dt > 0, "$.sem.dt", "must be > 0");
    check(sc.sem.time_order == 1 || sc.sem.time_order == 2, "$.sem.time_order",
          "must be 1 or 2");
    check(sc.dpd.box[0] > 0 && sc.dpd.box[1] > 0 && sc.dpd.box[2] > 0, "$.dpd.box",
          "non-positive box");
    check(sc.dpd.dt > 0, "$.dpd.dt", "must be > 0");
    check(sc.dpd.density > 0, "$.dpd.density", "must be > 0");
    check(sc.dpd.geometry.kind == "none" || sc.dpd.geometry.kind == "channel_z",
          "$.dpd.geometry.kind", "unknown geometry \"" + sc.dpd.geometry.kind +
                                     "\" (known: none, channel_z)");
    check(sc.flow_bc.axis >= 0 && sc.flow_bc.axis <= 2, "$.flow_bc.axis", "must be 0, 1 or 2");
    check(sc.coupling.exchange_every_ns > 0, "$.coupling.exchange_every_ns", "must be > 0");
    check(sc.coupling.dpd_per_ns > 0, "$.coupling.dpd_per_ns", "must be > 0");
    const auto& r = sc.coupling.region;
    check(r.size() == (sc.kind == "cdc" ? 4u : 6u), "$.coupling.region", "wrong length");
    for (std::size_t i = 0; i + 1 < r.size(); i += 2)
      check(r[i + 1] > r[i], "$.coupling.region",
            "degenerate region: need max > min on every axis");
    check(sc.sampler.nx > 0 && sc.sampler.ny > 0 && sc.sampler.nz > 0, "$.sampler",
          "non-positive bin count");
    check(sc.time.sample_from >= 0, "$.time.sample_from", "must be >= 0");
  } else if (sc.kind == "net1d") {
    check(!sc.network.vessels.empty(), "$.network.vessels", "at least one vessel required");
    const auto nv = static_cast<std::int64_t>(sc.network.vessels.size());
    for (std::size_t i = 0; i < sc.network.vessels.size(); ++i) {
      const auto& v = sc.network.vessels[i];
      const std::string p = "$.network.vessels[" + std::to_string(i) + "]";
      check(v.length > 0 && v.A0 > 0 && v.beta > 0 && v.rho > 0, p, "non-positive parameter");
      check(v.elements >= 1 && v.order >= 1, p, "need elements >= 1 and order >= 1");
    }
    const auto vessel_ok = [&](std::int64_t v) { return v >= 0 && v < nv; };
    for (std::size_t i = 0; i < sc.network.inlets.size(); ++i)
      check(vessel_ok(sc.network.inlets[i].vessel),
            "$.network.inlets[" + std::to_string(i) + "].vessel", "out of range");
    for (std::size_t i = 0; i < sc.network.outlets.size(); ++i)
      check(vessel_ok(sc.network.outlets[i].vessel),
            "$.network.outlets[" + std::to_string(i) + "].vessel", "out of range");
    for (std::size_t i = 0; i < sc.network.junctions.size(); ++i) {
      const std::string p = "$.network.junctions[" + std::to_string(i) + "]";
      check(sc.network.junctions[i].size() >= 2, p, "a junction joins at least 2 ends");
      for (const auto& a : sc.network.junctions[i]) check(vessel_ok(a.vessel), p, "out of range");
    }
    check(sc.network.dt >= 0, "$.network.dt", "must be >= 0 (0 = CFL-suggested)");
    check(sc.network.cfl > 0, "$.network.cfl", "must be > 0");
    check(sc.network.steps_per_interval > 0, "$.network.steps_per_interval", "must be > 0");
  }
}

}  // namespace scenario
