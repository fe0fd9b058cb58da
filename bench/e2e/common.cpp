#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "scenario/json.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"

namespace e2e {

namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Sizes of the --smoke variant of each scenario workload: the same code
/// paths in well under a second, long enough in DPD steps for the physics
/// checks to hold (JSON values replace the template's).
struct Override {
  const char* workload;
  const char* path;
  const char* json;
};
constexpr Override kSmoke[] = {
    {"cdc2d_ckpt", "dpd.box", "[8, 4, 6]"},
    {"cdc2d_ckpt", "dpd.geometry.height", "6"},
    {"cdc2d_ckpt", "time.intervals", "15"},
    {"cdc2d_ckpt", "time.develop_steps", "10"},
    {"cdc2d_ckpt", "time.sample_from", "5"},
    {"cdc2d_ckpt", "checkpoint.every", "5"},
    {"cdc3d_sem", "mesh3d",
     R"({"lx": 4, "ly": 1, "lz": 1, "nx": 2, "ny": 1, "nz": 2, "order": 3})"},
    {"cdc3d_sem", "dpd.box", "[8, 4, 6]"},
    {"cdc3d_sem", "dpd.geometry.height", "6"},
    {"cdc3d_sem", "time.intervals", "15"},
    {"cdc3d_sem", "time.develop_steps", "4"},
    {"cdc3d_sem", "time.sample_from", "5"},
    {"cdc3d_sem", "checkpoint.every", "5"},
    {"sweep_warm", "mesh", R"({"length": 4, "height": 1, "nx": 4, "ny": 1, "order": 3})"},
    {"sweep_warm", "time.develop_tol", "1e-4"},
};

Clock::time_point span_epoch() {
  static const Clock::time_point e = Clock::now();
  return e;
}

double span_clock() {
  return std::chrono::duration<double>(Clock::now() - span_epoch()).count();
}

std::string output_dir() {
  const char* env = std::getenv("NEKTARG_BENCH_DIR");
  return env && *env ? env : ".";
}

void walk(const telemetry::PhaseNode& n, const std::string& name, PhaseTotal& acc) {
  if (n.name == name) {
    acc.seconds += n.seconds;
    acc.count += static_cast<double>(n.count);
  }
  for (const auto& c : n.children) walk(c, name, acc);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every workload is sized to take about this long on the reference host
/// (2 vCPUs). The count of timed runs follows from --seconds alone, never
/// from a measured time, so every run of a workload does the same work.
constexpr int kNominalRunSeconds = 10;

}  // namespace

Seeds derive_seeds(int seed) {
  std::uint64_t s = static_cast<std::uint32_t>(seed);
  // positive 31-bit values: scenario files carry seeds as JSON numbers
  Seeds out;
  out.dpd = static_cast<std::uint32_t>(splitmix64(s) % 0x7FFFFFFEull) + 1;
  out.flow_bc = static_cast<std::uint32_t>(splitmix64(s) % 0x7FFFFFFEull) + 1;
  return out;
}

scenario::Scenario load_workload_scenario(const Options& o, const std::string& name) {
  // The template must itself be a valid scenario: loading it the way a user
  // would stops a broken template here, with the file's diagnostic.
  using scenario::Json;
  Json doc = scenario::serialize_scenario(
      scenario::load_scenario_file(o.templates + "/" + name + ".json"));
  const Seeds seeds = derive_seeds(o.seed);
  scenario::require_path(doc, "dpd.seed") = Json(static_cast<double>(seeds.dpd));
  scenario::require_path(doc, "flow_bc.seed") = Json(static_cast<double>(seeds.flow_bc));
  if (o.smoke)
    for (const auto& ov : kSmoke)
      if (name == ov.workload) scenario::require_path(doc, ov.path) = Json::parse(ov.json);
  const std::string path = name + ".scenario.json";
  {
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out) throw scenario::JsonError(path + ": cannot write the generated scenario");
  }
  return scenario::load_scenario_file(path);
}

// --- Metrics / Tally --------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  rows_.push_back({name, unit, value});
}

void Metrics::print() const {
  for (const auto& r : rows_)
    std::printf("METRIC %s %.17g %s\n", r.name.c_str(), r.value, r.unit.c_str());
  std::fflush(stdout);
}

void Metrics::write_report(const Options& o) const {
  telemetry::BenchReport rep("e2e_" + o.workload);
  rep.meta("workload", o.workload);
  rep.meta("seed", static_cast<double>(o.seed));
  rep.meta("trace", o.trace ? 1.0 : 0.0);
  rep.meta("smoke", o.smoke ? 1.0 : 0.0);
  for (const auto& r : rows_) {
    rep.row();
    rep.set("metric", r.name);
    rep.set("value", r.value);
    rep.set("unit", r.unit);
  }
  rep.write();
}

void Tally::expect(bool ok, const std::string& what) {
  std::printf("CHECK %s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) failing_ = true;
}

void time_legs(const Options& o, Metrics& m, Tally& t, const std::function<double()>& run,
               const std::function<double()>& setup, const std::function<double()>& restart) {
  std::vector<double> run_s, setup_s, restart_s;
  for (int k = 0; k < std::max(1, o.seconds / kNominalRunSeconds); ++k)
    t.attempt("run", [&] {
      telemetry::Registry::reset_all();
      run_s.push_back(run());
    });
  for (int k = 0; k < kSetupRepeats; ++k)
    t.attempt("setup", [&] { setup_s.push_back(setup()); });
  for (int k = 0; k < kSetupRepeats; ++k)
    t.attempt("restart", [&] { restart_s.push_back(restart()); });
  m.set("run_s", median(run_s), "s");
  m.set("setup_s", median(setup_s), "s");
  m.set("restart_s", median(restart_s), "s");
  m.set("runs", static_cast<double>(run_s.size()), "count");
}

void print_digest(std::uint64_t digest) {
  std::printf("DIGEST %016llx\n", static_cast<unsigned long long>(digest));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- spans ------------------------------------------------------------------

int SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.rank = rank_;
  s.t0_s = span_clock();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].t1_s = span_clock();
  stack_.pop_back();
}

std::vector<Span> merge(const std::vector<SpanLog>& logs) {
  std::vector<Span> out;
  for (const auto& log : logs) {
    const int base = static_cast<int>(out.size());
    for (Span s : log.spans()) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans)
    if (name == s.name) out.push_back(s.seconds());
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double SpanSplit::layer_s(const std::string& layer) const {
  for (const auto& [name, s] : layers)
    if (name == layer) return s;
  return 0.0;
}

SpanSplit split(const std::vector<Span>& spans, int run) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const auto& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();

  SpanSplit out;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (run >= 0 && spans[i].run != run) continue;
    if (spans[i].parent < 0) out.root_s += spans[i].seconds();
    const std::string name = spans[i].name;
    const auto dot = name.find('.');
    if (dot == std::string::npos)
      out.unattributed_s += self[i];
    else
      by_layer[name.substr(0, dot)] += self[i];
  }
  out.layers.assign(by_layer.begin(), by_layer.end());
  return out;
}

void write_trace(const Options& o, const std::vector<Span>& spans, const Metrics& metrics) {
  const SpanSplit sp = split(spans);
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("nektarg-e2e-trace-v1");
  w.key("workload");
  w.value(o.workload);
  w.key("seed");
  w.value(o.seed);
  w.key("root_s");
  w.value(sp.root_s);
  w.key("unattributed_s");
  w.value(sp.unattributed_s);
  w.key("layer_self_s");
  w.begin_object();
  for (const auto& [layer, s] : sp.layers) {
    w.key(layer);
    w.value(s);
  }
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& r : metrics.rows()) {
    w.key(r.name);
    w.begin_object();
    w.key("value");
    w.value(r.value);
    w.key("unit");
    w.value(r.unit);
    w.end_object();
  }
  w.end_object();
  w.key("spans");
  w.begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("start_s");
    w.value(s.t0_s);
    w.key("end_s");
    w.value(s.t1_s);
    w.key("parent");
    w.value(s.parent);
    w.key("run");
    w.value(s.run);
    w.key("rank");
    w.value(s.rank);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string path = output_dir() + "/TRACE_" + o.workload + ".json";
  std::ofstream out(path);
  out << w.str() << "\n";
  if (out)
    std::fprintf(stderr, "e2e: wrote %s (%zu spans)\n", path.c_str(), spans.size());
  else
    std::fprintf(stderr, "e2e: cannot write %s\n", path.c_str());
}

// --- registry ---------------------------------------------------------------

PhaseTotal phase_total(const std::string& name) {
  PhaseTotal acc;
  for (const auto& reg : telemetry::Registry::all()) walk(reg->phases(), name, acc);
  return acc;
}

double counter_total(const std::string& name) {
  double v = 0.0;
  for (const auto& reg : telemetry::Registry::all()) {
    const auto cs = reg->counters();
    if (auto it = cs.find(name); it != cs.end()) v += it->second.value;
  }
  return v;
}

std::vector<double> timeline_durations(const std::string& name) {
  std::vector<double> out;
  for (const auto& ev : telemetry::Registry::local().timeline())
    if (ev.name == name) out.push_back(ev.dur_us * 1e-6);
  return out;
}

// --- per-layer report ---------------------------------------------------------

void emit_layers(const LayerReport& r, Metrics& m) {
  m.set("coupling.interval_ms_p50", 1e3 * percentile(r.interval_s, 0.5), "ms");
  m.set("coupling.interval_ms_p90", 1e3 * percentile(r.interval_s, 0.9), "ms");

  m.set("sem.step_s", sum(r.sem_step_s), "s");
  m.set("sem.steps", static_cast<double>(r.sem_step_s.size()), "count");
  m.set("sem.step_ms_p50", 1e3 * median(r.sem_step_s), "ms");
  m.set("sem.nodes", r.sem_nodes, "count");
  m.set("sem.helmholtz_applies",
        counter_total("sem.apply.helmholtz2d") + counter_total("sem.apply.helmholtz"), "count");

  const double cg_solves = counter_total("cg.solves");
  const double cg_iters = counter_total("cg.iterations");
  m.set("la.cg_s", phase_total("cg.solve").seconds, "s");
  m.set("la.cg_solves", cg_solves, "count");
  m.set("la.cg_iters", cg_iters, "count");
  m.set("la.cg_iters_per_solve", ratio(cg_iters, cg_solves), "1");
  m.set("la.cg_breakdowns", counter_total("cg.breakdowns"), "count");

  const double dpd_s = sum(r.dpd_step_s);
  const double forces_s = phase_total("dpd.forces").seconds;
  const double rebuilds = counter_total("dpd.nlist.rebuild");
  const double reuses = counter_total("dpd.nlist.reuse");
  m.set("dpd.step_s", dpd_s, "s");
  m.set("dpd.steps", r.dpd_steps, "count");
  m.set("dpd.particle_steps", r.particle_steps, "count");
  m.set("dpd.step_us_per_particle", 1e6 * ratio(dpd_s, r.particle_steps), "us");
  m.set("dpd.forces_s", forces_s, "s");
  m.set("dpd.nlist_build_s", phase_total("dpd.nlist.build").seconds, "s");
  m.set("dpd.nlist_rebuilds", rebuilds, "count");
  m.set("dpd.nlist_reuses", reuses, "count");
  m.set("dpd.nlist_reuse_ratio", ratio(reuses, reuses + rebuilds), "1");
  m.set("dpd.listed_pairs", r.listed_pairs, "count");
  m.set("dpd.integrate_s", phase_total("dpd.integrate").seconds, "s");

  m.set("flowbc.apply_s", r.flowbc_apply_s, "s");
  m.set("flowbc.inserted", r.flowbc_inserted, "count");
  m.set("flowbc.deleted", r.flowbc_deleted, "count");
  m.set("sampler.accumulate_s", r.sampler_s, "s");

  const PhaseTotal rebuild = phase_total("dpd.exchange.rebuild");
  m.set("exchange.s", phase_total("dpd.exchange").seconds, "s");
  m.set("exchange.rebuild_s", rebuild.seconds, "s");
  m.set("exchange.rebuilds", rebuild.count, "count");
  m.set("exchange.migrations", counter_total("dpd.migrate.count"), "count");
  m.set("exchange.halo_bytes_per_step", ratio(counter_total("dpd.halo.bytes"), r.dpd_steps),
        "B");
  m.set("exchange.overlap_fraction",
        ratio(1e-6 * counter_total("dpd.halo.overlap_us"), forces_s), "1");
  m.set("exchange.rank_imbalance", r.rank_imbalance, "1");
  m.set("xmp.msgs_per_step", ratio(r.xmp_msgs, r.dpd_steps), "count");
  m.set("xmp.bytes_per_step", ratio(r.xmp_bytes, r.dpd_steps), "B");

  const PhaseTotal save = phase_total("resilience.save");
  m.set("ckpt.save_s", save.seconds, "s");
  m.set("ckpt.saves", save.count, "count");
  m.set("ckpt.bytes", counter_total("resilience.checkpoint.bytes"), "B");
  m.set("ckpt.load_s", phase_total("resilience.load").seconds, "s");

  m.set("scenario.shared_table_hit_ratio", r.table_hit_ratio, "1");
  m.set("scenario.develop_steps", r.develop_steps, "count");
  m.set("scenario.variant_s_p50", median(r.variant_s), "s");
  m.set("scenario.unattributed_share", r.unattributed_share, "1");
  m.set("trace.overhead_ratio", r.overhead_ratio, "1");
  m.set("sem.share", r.sem_share, "1");
  m.set("dpd.share", r.dpd_share, "1");
}

// --- physics ----------------------------------------------------------------

double peculiar_temperature(const std::vector<dpd::Vec3>& pos,
                            const std::vector<dpd::Vec3>& vel, const dpd::Vec3& box) {
  // bins of about 2 x box.y x 1 DPD units: tens of particles each at density 3
  const int nbx = std::max(1, static_cast<int>(box.x / 2.0));
  const int nbz = std::max(1, static_cast<int>(box.z));
  const auto nb = static_cast<std::size_t>(nbx) * static_cast<std::size_t>(nbz);
  auto bin = [&](const dpd::Vec3& p) {
    const int bx = std::clamp(static_cast<int>(p.x / box.x * nbx), 0, nbx - 1);
    const int bz = std::clamp(static_cast<int>(p.z / box.z * nbz), 0, nbz - 1);
    return static_cast<std::size_t>(bz) * static_cast<std::size_t>(nbx) +
           static_cast<std::size_t>(bx);
  };
  std::vector<dpd::Vec3> mean(nb);
  std::vector<std::size_t> cnt(nb, 0);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto b = bin(pos[i]);
    mean[b] += vel[i];
    ++cnt[b];
  }
  std::size_t used = 0;
  for (std::size_t b = 0; b < nb; ++b)
    if (cnt[b]) {
      mean[b] = mean[b] * (1.0 / static_cast<double>(cnt[b]));
      ++used;
    }
  double ke = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i) ke += (vel[i] - mean[bin(pos[i])]).norm2();
  return ratio(ke, 3.0 * (static_cast<double>(pos.size()) - static_cast<double>(used)));
}

bool all_finite(const std::vector<dpd::Vec3>& v) {
  for (const auto& p : v)
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) return false;
  return true;
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // also keeps the high-water mark of the forked parent from before exec,
  // which would charge a launcher's memory to the workload.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace e2e
