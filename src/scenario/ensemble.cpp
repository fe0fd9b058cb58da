#include "scenario/ensemble.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "resilience/blob.hpp"
#include "scenario/fields.hpp"
#include "xmp/comm.hpp"

namespace scenario {

namespace {

// p2p tags of the dispatcher protocol
constexpr int kWorkerMsgTag = 71;  ///< worker -> master: hello / result
constexpr int kAssignTag = 72;     ///< master -> worker: variant assignment

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
                            std::uint64_t& tbl_hits, std::uint64_t& tbl_misses) {
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
  r.pod(tbl_hits);
  r.pod(tbl_misses);
  return res;
}

/// Nearest completed parameter point (normalized Euclidean distance).
std::int64_t nearest_donor(const std::vector<Variant>& variants,
                           const std::map<std::size_t, std::vector<std::uint8_t>>& blobs,
                           const Variant& target) {
  std::int64_t best = -1;
  double best_d = 0.0;
  for (const auto& [idx, blob] : blobs) {
    if (blob.empty()) continue;
    const auto& c = variants[idx].coords;
    double d = 0.0;
    for (std::size_t a = 0; a < c.size() && a < target.coords.size(); ++a) {
      const double dd = c[a] - target.coords[a];
      d += dd * dd;
    }
    if (best < 0 || d < best_d) {
      best = static_cast<std::int64_t>(idx);
      best_d = d;
    }
  }
  return best;
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
  for (std::size_t i = 0; i < s.axes.size(); ++i)
    if (s.axes[i].values.empty())
      sweep_fail("$.axes[" + std::to_string(i) + "] (\"" + s.axes[i].path + "\"): empty values");
  if (s.mode != "cross" && s.mode != "zip")
    sweep_fail("$.mode \"" + s.mode + "\" unknown (known: cross, zip)");
  if (s.axes.empty()) sweep_fail("$.axes: no axes");
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
  } else {
    std::vector<std::size_t> cur(na, 0);
    while (true) {
      picks.push_back(cur);
      std::size_t a = na;
      while (a > 0) {
        --a;
        if (++cur[a] < sweep.axes[a].values.size()) break;
        cur[a] = 0;
        if (a == 0) {
          a = static_cast<std::size_t>(-1);
          break;
        }
      }
      if (a == static_cast<std::size_t>(-1)) break;
    }
  }

  // per-axis numeric ranges for coordinate normalization
  std::vector<double> lo(na, 0.0), hi(na, 0.0);
  for (std::size_t a = 0; a < na; ++a) {
    bool first = true;
    for (const Json& v : sweep.axes[a].values) {
      if (!v.is_number()) continue;
      const double x = v.as_number();
      if (first || x < lo[a]) lo[a] = first ? x : std::min(lo[a], x);
      if (first || x > hi[a]) hi[a] = first ? x : std::max(hi[a], x);
      first = false;
    }
  }

  const std::string base_name = [&] {
    const Json* n = base.find("name");
    return n && n->is_string() ? n->as_string() : std::string("ensemble");
  }();

  std::vector<Variant> out;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    Variant v;
    v.index = i;
    v.doc = base;
    v.coords.assign(na, 0.0);
    std::string suffix;
    for (std::size_t a = 0; a < na; ++a) {
      const Json& val = sweep.axes[a].values[picks[i][a]];
      require_path(v.doc, sweep.axes[a].path) = val;
      if (val.is_number() && hi[a] > lo[a])
        v.coords[a] = (val.as_number() - lo[a]) / (hi[a] - lo[a]);
      suffix += (suffix.empty() ? "" : ",") + sweep.axes[a].path + "=" + value_suffix(val);
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
                                          std::int64_t donor_index,
                                          std::vector<std::uint8_t>* warm_out) {
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
    r.warm_source = runner.warm_applied() ? donor_index : -1;
    if (warm_out) *warm_out = runner.warm_state();
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
    if (warm_out) warm_out->clear();
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
  std::map<std::size_t, std::vector<std::uint8_t>> warm_blobs;
  for (const auto& v : variants) {
    std::vector<std::uint8_t> donor;
    std::int64_t donor_idx = -1;
    if (opts_.warm != WarmMode::Off) {
      donor_idx = nearest_donor(variants, warm_blobs, v);
      if (donor_idx >= 0) donor = warm_blobs[static_cast<std::size_t>(donor_idx)];
    }
    std::vector<std::uint8_t> warm_out;
    VariantResult r = run_variant(v, tables, donor, donor_idx, &warm_out);
    if (r.ok && opts_.warm != WarmMode::Off) warm_blobs[v.index] = std::move(warm_out);
    rep.variants[v.index] = std::move(r);
  }
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
          // dispatcher: pull-based work distribution — whichever worker asks
          // first gets the next variant (async work stealing).
          std::map<std::size_t, std::vector<std::uint8_t>> warm_blobs;
          std::map<int, std::pair<std::uint64_t, std::uint64_t>> tbl_stats;
          std::size_t next = 0;
          int active = comm.size() - 1;
          while (active > 0) {
            int src = xmp::kAnySource;
            auto msg = comm.recv_bytes(xmp::kAnySource, kWorkerMsgTag, &src);
            resilience::BlobReader mr(msg);
            if (mr.pod<std::uint8_t>() != 0) {  // carries a result
              std::vector<std::uint8_t> warm_blob;
              std::uint64_t th = 0, tm = 0;
              VariantResult r = unpack_result(mr, warm_blob, th, tm);
              r.rank = src;
              tbl_stats[src] = {th, tm};
              if (r.ok && opts_.warm != WarmMode::Off) warm_blobs[r.index] = std::move(warm_blob);
              rep.variants[r.index] = std::move(r);
            }
            mr.expect_end();
            resilience::BlobWriter aw;
            if (next < variants.size()) {
              const Variant& v = variants[next];
              std::int64_t donor_idx = -1;
              if (opts_.warm != WarmMode::Off) donor_idx = nearest_donor(variants, warm_blobs, v);
              aw.pod(static_cast<std::int64_t>(next));
              aw.pod(donor_idx);
              if (donor_idx >= 0)
                aw.vec(warm_blobs[static_cast<std::size_t>(donor_idx)]);
              else
                aw.vec(std::vector<std::uint8_t>{});
              ++next;
            } else {
              aw.pod(static_cast<std::int64_t>(-1));
              aw.pod(static_cast<std::int64_t>(-1));
              aw.vec(std::vector<std::uint8_t>{});
              --active;
            }
            const auto bytes = aw.take();
            comm.send_bytes(src, kAssignTag, bytes.data(), bytes.size());
          }
          for (const auto& [rank, hm] : tbl_stats) {
            rep.shared_hits += hm.first;
            rep.shared_misses += hm.second;
          }
        } else {
          // worker: hello, then run assignments until told to stop
          SharedTables tables;
          resilience::BlobWriter hello;
          hello.pod(static_cast<std::uint8_t>(0));
          const auto hb = hello.take();
          comm.send_bytes(0, kWorkerMsgTag, hb.data(), hb.size());
          while (true) {
            auto msg = comm.recv_bytes(0, kAssignTag);
            resilience::BlobReader ar(msg);
            const auto idx = ar.pod<std::int64_t>();
            const auto donor_idx = ar.pod<std::int64_t>();
            const auto donor = ar.vec<std::uint8_t>();
            ar.expect_end();
            if (idx < 0) break;
            std::vector<std::uint8_t> warm_out;
            VariantResult r = run_variant(variants[static_cast<std::size_t>(idx)], tables, donor,
                                          donor_idx, &warm_out);
            resilience::BlobWriter w;
            w.pod(static_cast<std::uint8_t>(1));
            pack_result(w, r, warm_out, tables.hits(), tables.misses());
            const auto rb = w.take();
            comm.send_bytes(0, kWorkerMsgTag, rb.data(), rb.size());
          }
        }
      },
      nullptr, xmp::CheckOptions::from_env(), sched);
  return rep;
}

}  // namespace scenario
