#include "scenario/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "resilience/blob.hpp"
#include "scenario/fields.hpp"
#include "xmp/comm.hpp"

namespace scenario {

namespace {

// p2p tags of the dispatcher protocol
constexpr int kResultTag = 71;  ///< worker -> master: a variant's result
constexpr int kAssignTag = 72;  ///< master -> worker: variant assignment

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

[[noreturn]] void sweep_fail(const std::string& what) {
  throw JsonError("sweep: " + what);
}

std::string value_suffix(const Json& v) {
  if (v.is_number()) {
    std::string s;
    append_json_number(s, v.as_number());
    return s;
  }
  if (v.is_string()) return v.as_string();
  return v.dump();
}

void pack_result(resilience::BlobWriter& w, const VariantResult& r,
                 const std::vector<std::uint8_t>& warm_blob, std::uint64_t tbl_hits,
                 std::uint64_t tbl_misses) {
  w.pod(static_cast<std::uint64_t>(r.index));
  w.pod(static_cast<std::uint8_t>(r.ok));
  w.str(r.error);
  w.pod(r.digest);
  w.pod(r.cg_iters);
  w.pod(r.develop_steps);
  w.pod(r.seconds);
  w.pod(r.warm_source);
  w.vec(warm_blob);
  w.pod(tbl_hits);
  w.pod(tbl_misses);
}

VariantResult unpack_result(resilience::BlobReader& r, std::vector<std::uint8_t>& warm_blob,
                            std::pair<std::uint64_t, std::uint64_t>& tbl_stats) {
  VariantResult res;
  res.index = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.ok = r.pod<std::uint8_t>() != 0;
  res.error = r.str();
  r.pod(res.digest);
  r.pod(res.cg_iters);
  r.pod(res.develop_steps);
  r.pod(res.seconds);
  r.pod(res.warm_source);
  warm_blob = r.vec<std::uint8_t>();
  r.pod(tbl_stats.first);
  r.pod(tbl_stats.second);
  return res;
}

/// The warm state `v` starts from: its donor's, empty for none.
const std::vector<std::uint8_t>& donor_state(const std::vector<std::vector<std::uint8_t>>& warm,
                                             const Variant& v) {
  static const std::vector<std::uint8_t> none;
  return v.donor >= 0 ? warm[static_cast<std::size_t>(v.donor)] : none;
}

/// The structural rules of a sweep spec, for parsed and hand-built specs alike.
void check_axes(const SweepSpec& s) {
  auto axis = [&](std::size_t i) {
    return "$.axes[" + std::to_string(i) + "] (\"" + s.axes[i].path + "\")";
  };
  // path `outer` names `inner` or one of its ancestors
  auto covers = [](const std::string& outer, const std::string& inner) {
    return (inner + ".").starts_with(outer + ".");
  };
  for (std::size_t i = 0; i < s.axes.size(); ++i) {
    if (s.axes[i].values.empty()) sweep_fail(axis(i) + ": empty values");
    // two axes over one value: the variant names would list both, but only
    // the later assignment would run
    for (std::size_t j = 0; j < i; ++j)
      if (covers(s.axes[j].path, s.axes[i].path) || covers(s.axes[i].path, s.axes[j].path))
        sweep_fail(axis(i) + " overlaps " + axis(j));
  }
  if (s.mode != "cross" && s.mode != "zip")
    sweep_fail("$.mode \"" + s.mode + "\" unknown (known: cross, zip)");
  if (s.axes.empty()) sweep_fail("$.axes: no axes");
}

}  // namespace

auto fields(const SweepAxis*) {
  return std::tuple{Field{"path", &SweepAxis::path, Use::Required},
                    Field{"values", &SweepAxis::values, Use::Required}};
}

auto fields(const SweepSpec*) {
  return std::tuple{Field{"mode", &SweepSpec::mode},
                    Field{"axes", &SweepSpec::axes, Use::Required}};
}

SweepSpec SweepSpec::parse(const Json& doc) {
  SweepSpec s;
  try {
    from_json(doc, "$", s);
  } catch (const JsonError& e) {
    sweep_fail(e.what());
  }
  check_axes(s);
  return s;
}

SweepSpec load_sweep_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError(path + ": cannot open sweep file");
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return SweepSpec::parse(Json::parse(ss.str()));
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

std::vector<Variant> EnsembleEngine::expand(const Json& base, const SweepSpec& sweep) {
  check_axes(sweep);
  const std::size_t na = sweep.axes.size();
  // enumerate the per-variant value selections
  std::vector<std::vector<std::size_t>> picks;
  if (sweep.mode == "zip") {
    const std::size_t n = sweep.axes[0].values.size();
    for (const auto& ax : sweep.axes)
      if (ax.values.size() != n)
        sweep_fail("zip axes must have equal lengths (\"" + ax.path + "\" has " +
                   std::to_string(ax.values.size()) + ", expected " + std::to_string(n) + ")");
    for (std::size_t i = 0; i < n; ++i) picks.emplace_back(na, i);
  } else {  // variant k's picks are k's mixed-radix digits, the last axis fastest
    std::size_t total = 1;
    for (const auto& ax : sweep.axes) total *= ax.values.size();
    for (std::size_t k = 0; k < total; ++k) {
      auto& pick = picks.emplace_back(na, 0);
      for (std::size_t a = na, rest = k; a-- > 0; rest /= sweep.axes[a].values.size())
        pick[a] = rest % sweep.axes[a].values.size();
    }
  }

  // per-axis numeric ranges for coordinate normalization
  std::vector<double> lo(na, HUGE_VAL), hi(na, -HUGE_VAL);
  for (std::size_t a = 0; a < na; ++a)
    for (const Json& v : sweep.axes[a].values)
      if (v.is_number()) {
        lo[a] = std::min(lo[a], v.as_number());
        hi[a] = std::max(hi[a], v.as_number());
      }

  const std::string base_name = [&] {
    const Json* n = base.find("name");
    return n && n->is_string() ? n->as_string() : std::string("ensemble");
  }();

  std::vector<Variant> out;
  std::vector<std::vector<double>> coords;  // per variant and axis, normalized to [0, 1]
  for (std::size_t i = 0; i < picks.size(); ++i) {
    Variant v;
    v.index = i;
    v.doc = base;
    std::vector<double>& c = coords.emplace_back(na, 0.0);
    std::string suffix;
    for (std::size_t a = 0; a < na; ++a) {
      const Json& val = sweep.axes[a].values[picks[i][a]];
      require_path(v.doc, sweep.axes[a].path) = val;
      if (val.is_number() && hi[a] > lo[a]) c[a] = (val.as_number() - lo[a]) / (hi[a] - lo[a]);
      suffix += (suffix.empty() ? "" : ",") + sweep.axes[a].path + "=" + value_suffix(val);
    }
    // the donor: the nearest earlier variant (Euclidean distance over the
    // normalized coordinates), ties to the lower index
    double best = 0.0;
    for (std::size_t j = 0; j < i; ++j) {
      double d = 0.0;
      for (std::size_t a = 0; a < na; ++a) {
        const double dd = coords[j][a] - c[a];
        d += dd * dd;
      }
      if (v.donor < 0 || d < best) {
        v.donor = static_cast<std::int64_t>(j);
        best = d;
      }
    }
    v.name = base_name + "[" + suffix + "]";
    v.doc.set("name", v.name);
    // each variant parses + validates up front, so a bad sweep value fails
    // before any rank starts computing
    parse_scenario(v.doc);
    out.push_back(std::move(v));
  }
  return out;
}

EnsembleEngine::EnsembleEngine(Json base_doc, SweepSpec sweep, EnsembleOptions opts)
    : base_(std::move(base_doc)), sweep_(std::move(sweep)), opts_(std::move(opts)) {}

VariantResult EnsembleEngine::run_variant(const Variant& v, SharedTables& tables,
                                          const std::vector<std::uint8_t>& donor_blob,
                                          std::vector<std::uint8_t>& warm_out) {
  VariantResult r;
  r.index = v.index;
  const double t0 = now_seconds();
  try {
    Scenario sc = parse_scenario(v.doc);
    RunnerOptions ro;
    ro.fault_plan = opts_.fault_plan;
    ro.fault_id = static_cast<int>(v.index);
    Runner runner(std::move(sc), ro, &tables);
    if (opts_.warm != WarmMode::Off && !donor_blob.empty())
      runner.set_warm_start(opts_.warm, donor_blob);
    const RunResult rr = runner.run();
    r.ok = true;
    r.digest = rr.digest;
    r.cg_iters = rr.cg_iters;
    r.develop_steps = rr.develop_steps;
    r.warm_source = runner.warm_applied() ? v.donor : -1;
    if (opts_.warm != WarmMode::Off) warm_out = runner.warm_state();
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.seconds = now_seconds() - t0;
  return r;
}

EnsembleReport EnsembleEngine::run() {
  const auto variants = expand(base_, sweep_);
  const double t0 = now_seconds();
  EnsembleReport rep =
      opts_.pool > 1 ? run_pool(variants) : run_serial(variants);
  rep.wall_seconds = now_seconds() - t0;
  for (const auto& r : rep.variants) {
    if (r.ok) {
      ++rep.completed;
      rep.cg_total += r.cg_iters;
      rep.develop_total += r.develop_steps;
    } else {
      ++rep.failed;
    }
  }
  return rep;
}

EnsembleReport EnsembleEngine::run_serial(const std::vector<Variant>& variants) {
  EnsembleReport rep;
  rep.variants.resize(variants.size());
  SharedTables tables;
  std::vector<std::vector<std::uint8_t>> warm(variants.size());
  for (const auto& v : variants)
    rep.variants[v.index] = run_variant(v, tables, donor_state(warm, v), warm[v.index]);
  rep.shared_hits = tables.hits();
  rep.shared_misses = tables.misses();
  return rep;
}

EnsembleReport EnsembleEngine::run_pool(const std::vector<Variant>& variants) {
  EnsembleReport rep;
  rep.variants.resize(variants.size());

  // Each rank runs a whole solver on its fiber stack: 4 MiB, not the
  // default 256 KiB.
  xmp::SchedOptions sched;
  sched.stack_kb = 4096;

  xmp::run(
      opts_.pool,
      [&](xmp::Comm& comm) {
        if (comm.rank() == 0) {
          // dispatcher: a free worker takes the lowest-index variant that is
          // ready — any variant with warm starts off, else one whose donor
          // has finished — and waits while none is.
          const std::size_t n = variants.size();
          std::vector<std::vector<std::uint8_t>> warm(n);
          std::vector<char> started(n, 0), finished(n, 0);
          std::size_t pending = n;  // not yet started
          auto ready = [&](const Variant& v) {
            return !started[v.index] && (opts_.warm == WarmMode::Off || v.donor < 0 ||
                                         finished[static_cast<std::size_t>(v.donor)]);
          };
          std::vector<std::pair<std::uint64_t, std::uint64_t>> tbl_stats(comm.size());
          std::vector<int> idle;  // workers waiting for an assignment, rank 1 at the back
          for (int w = comm.size() - 1; w >= 1; --w) idle.push_back(w);
          int active = comm.size() - 1;
          while (true) {
            while (!idle.empty()) {
              const auto it = std::find_if(variants.begin(), variants.end(), ready);
              if (it == variants.end() && pending > 0) break;  // wait for a donor
              resilience::BlobWriter aw;
              if (it != variants.end()) {
                aw.pod(static_cast<std::int64_t>(it->index));
                aw.vec(donor_state(warm, *it));
                started[it->index] = 1;
                --pending;
              } else {
                aw.pod(static_cast<std::int64_t>(-1));
                --active;
              }
              const auto bytes = aw.take();
              comm.send_bytes(idle.back(), kAssignTag, bytes.data(), bytes.size());
              idle.pop_back();
            }
            if (active == 0) break;
            int src = xmp::kAnySource;
            auto msg = comm.recv_bytes(xmp::kAnySource, kResultTag, &src);
            resilience::BlobReader mr(msg);
            std::vector<std::uint8_t> blob;
            VariantResult r = unpack_result(mr, blob, tbl_stats[static_cast<std::size_t>(src)]);
            mr.expect_end();
            r.rank = src;
            finished[r.index] = 1;
            warm[r.index] = std::move(blob);
            rep.variants[r.index] = std::move(r);
            idle.push_back(src);
          }
          for (const auto& [hits, misses] : tbl_stats) {
            rep.shared_hits += hits;
            rep.shared_misses += misses;
          }
        } else {
          // worker: run assignments until told to stop
          SharedTables tables;
          while (true) {
            auto msg = comm.recv_bytes(0, kAssignTag);
            resilience::BlobReader ar(msg);
            const auto idx = ar.pod<std::int64_t>();
            if (idx < 0) break;
            const auto donor = ar.vec<std::uint8_t>();
            ar.expect_end();
            std::vector<std::uint8_t> warm_out;
            VariantResult r =
                run_variant(variants[static_cast<std::size_t>(idx)], tables, donor, warm_out);
            resilience::BlobWriter w;
            pack_result(w, r, warm_out, tables.hits(), tables.misses());
            const auto rb = w.take();
            comm.send_bytes(0, kResultTag, rb.data(), rb.size());
          }
        }
      },
      nullptr, xmp::CheckOptions::from_env(), sched);
  return rep;
}

}  // namespace scenario
