// DPD pair-iteration throughput on one lane: the engine's reused Verlet
// neighbor list (at the default skin) vs a skin-0 NeighborList that
// rebuilds its cell grid and pair list on every sweep and pays a
// std::function indirect call per pair (the pre-fast-path cost model).
// Prints pairs/sec for both and
// DPD_PAIRS_SPEEDUP for CI to grep, then times one full Verlet build at the
// cdc2d_ckpt DPD shape and at the 12^3 periodic box, measures
// rebuilds/step across skin radii on a live (stepped) system and on an open
// channel whose FlowBc inserts and deletes particles every step, and sweeps
// the skin at the cdc2d_ckpt DPD shape with its open x faces (force-pass
// and step cost, rebuild rate, listed and in-range pairs: the measurement
// behind dpd::kDefaultSkin). The open-channel rows also report how many
// removal maps per step the list compacted and how many a rebuild dropped. Last, it times the force pass of that run on
// every idle core next to inline (DPD_LANES_SPEEDUP) and checks that both
// give one trajectory digest. Writes BENCH_dpd_pairs.json. Exits non-zero
// when the Verlet speedup falls below kMinSpeedup, when the lane speedup
// falls below kMinLaneSpeedup where the process may run on two or more
// hardware threads, or when the digests differ.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dpd/exchange/distributed.hpp"
#include "dpd/inflow.hpp"
#include "dpd/neighbor.hpp"
#include "dpd/system.hpp"
#include "one_lane.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/registry.hpp"
#include "xmp/sched/lanes.hpp"

namespace {

constexpr double kBoxLen = 12.0;
constexpr double kDensity = 3.0;
constexpr int kWarmupSteps = 50;
constexpr int kTraversals = 25;
constexpr int kRepeats = 5;
constexpr int kLiveSteps = 200;
constexpr int kSkinSteps = 300;
constexpr double kMinSpeedup = 1.5;
/// Force-pass speed-up on every idle core over inline, gated where a pass
/// outside xmp::run gets two or more lanes, and the rounds of one run of each variant
/// whose median speed-up is gated (each variant also reports its best).
constexpr double kMinLaneSpeedup = 1.3;
constexpr int kLaneRounds = 15;

dpd::DpdSystem make_system(double skin, bool open_x = false) {
  dpd::DpdParams prm;
  prm.box = {kBoxLen, kBoxLen, kBoxLen};
  prm.periodic = {!open_x, true, true};
  prm.skin = skin;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::NoWalls>());
  sys.fill(kDensity, dpd::kSolvent);
  for (int s = 0; s < kWarmupSteps; ++s) sys.step();
  return sys;
}

struct Throughput {
  double pairs_per_sec = 0.0;
  double best_ms = 0.0;
  std::size_t pairs = 0;
};

/// Best-of-kRepeats time for kTraversals calls of `sweep()` (a pair sweep or
/// a full build).
template <class Sweep>
Throughput time_sweeps(Sweep&& sweep) {
  Throughput out;
  double checksum = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    std::size_t pairs = 0;
    double acc = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < kTraversals; ++t) sweep(pairs, acc);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < out.best_ms) out.best_ms = ms;
    out.pairs = pairs / kTraversals;
    checksum += acc;
  }
  if (!(checksum == checksum)) std::abort();  // keep the work observable
  out.pairs_per_sec =
      static_cast<double>(out.pairs) * kTraversals / (out.best_ms * 1e-3);
  return out;
}

/// The cdc2d_ckpt DPD box (the quickstart scenario): 16x6x10, periodic in y
/// only, channel walls at z = 0 and 10, filled at density 3 with margin 0.1.
dpd::DpdSystem make_channel(double skin = dpd::kDefaultSkin) {
  dpd::DpdParams prm;
  prm.box = {16.0, 6.0, 10.0};
  prm.periodic = {false, true, false};
  prm.skin = skin;
  dpd::DpdSystem sys(prm, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(kDensity, dpd::kSolvent, 7, 0.1);
  return sys;
}

/// Best-of-kRepeats milliseconds per full Verlet build (rc + skin, the
/// engine's defaults) of `sys`'s current positions.
double best_build_ms(const dpd::DpdSystem& sys) {
  const auto& p = sys.params();
  dpd::NeighborList nl({p.box, p.periodic, p.rc, p.skin});
  return time_sweeps([&](std::size_t&, double&) {
           nl.invalidate();
           nl.ensure(sys.positions());
         }).best_ms /
         kTraversals;
}

/// ms per force pass (the dpd.forces phase, full builds included), lanes
/// per pass and the trajectory digest of kSkinSteps steps of the skin
/// sweep's cdc2d_ckpt-shaped FlowBc run at the default skin, on the calling
/// thread's lanes.
struct LanePassTiming {
  double ms_per_pass = 0.0, lanes_per_pass = 0.0;
  std::uint64_t digest = 0;
};
LanePassTiming time_lane_passes() {
  auto ch = make_channel();
  dpd::FlowBcParams bp;
  bp.axis = 0;
  bp.density = kDensity;
  bp.relax = 0.3;
  bp.target_velocity = [](const dpd::Vec3& p) {
    return dpd::Vec3{0.2 * p.z * (10.0 - p.z), 0.0, 0.0};
  };
  dpd::FlowBc bc(bp);
  for (int s = 0; s < kWarmupSteps; ++s) {
    ch.step();
    bc.apply(ch);
  }
  telemetry::Registry::local().clear();
  for (int s = 0; s < kSkinSteps; ++s) {
    ch.step();
    bc.apply(ch);
  }
  const auto phases = telemetry::Registry::local().phases();
  const telemetry::PhaseNode* step = phases.find("dpd.step");
  const telemetry::PhaseNode* forces = step ? step->find("dpd.forces") : nullptr;
  const auto lanes = telemetry::Registry::local().counters()["dpd.lanes"];
  if (!forces || forces->count == 0 || lanes.count == 0) std::abort();
  return {1e3 * forces->seconds / static_cast<double>(forces->count),
          lanes.value / static_cast<double>(lanes.count), dpd::exchange::trajectory_digest(ch)};
}

}  // namespace

int main() {
  std::printf("=== DPD pair iteration: reused Verlet list vs rebuild-every-sweep ===\n");

  auto sys = make_system(dpd::kDefaultSkin);
  const std::size_t n = sys.size();
  std::printf("n=%zu box=%.0f^3 rc=%.1f density=%.1f\n", n, kBoxLen, sys.params().rc, kDensity);

  // Both sweeps run on one lane: the pair traversal is serial, and the
  // lanes rows below measure the split builds.
  Throughput baseline, verlet;
  on_one_lane([&] {
    // Baseline: at skin 0 the list never survives a sweep, so every sweep
    // rebuilds the rc-sized cell grid and half-stencil pair list, then pays
    // an indirect call per pair, as the pre-Verlet for_each_pair did.
    dpd::NeighborList rebuild({sys.params().box, sys.params().periodic, sys.params().rc, 0.0});
    baseline = time_sweeps([&](std::size_t& pairs, double& acc) {
      std::function<void(std::size_t, std::size_t, const dpd::Vec3&, double)> visit =
          [&](std::size_t, std::size_t, const dpd::Vec3&, double r) {
            ++pairs;
            acc += r;
          };
      rebuild.ensure(sys.positions());
      rebuild.for_each(sys.positions(), visit);
    });

    // Fast path: Verlet list (reused while the skin holds) + inlined kernel.
    verlet = time_sweeps([&](std::size_t& pairs, double& acc) {
      sys.for_each_pair([&](std::size_t, std::size_t, const dpd::Vec3&, double r) {
        ++pairs;
        acc += r;
      });
    });
  });

  const double speedup = verlet.pairs_per_sec / baseline.pairs_per_sec;
  std::printf("rebuild:  %10.3e pairs/s  (%.2f ms / %d sweeps, %zu pairs)\n",
              baseline.pairs_per_sec, baseline.best_ms, kTraversals, baseline.pairs);
  std::printf("verlet:   %10.3e pairs/s  (%.2f ms / %d sweeps, %zu pairs)\n",
              verlet.pairs_per_sec, verlet.best_ms, kTraversals, verlet.pairs);
  std::printf("DPD_PAIRS_SPEEDUP=%.2f\n", speedup);

  telemetry::BenchReport rep("dpd_pairs");
  rep.meta("n", static_cast<double>(n));
  rep.meta("box", kBoxLen);
  rep.meta("rc", sys.params().rc);
  rep.meta("density", kDensity);
  rep.meta("traversals", static_cast<double>(kTraversals));
  rep.row();
  rep.set("variant", std::string("rebuild"));
  rep.set("pairs_per_sec", baseline.pairs_per_sec);
  rep.set("best_ms", baseline.best_ms);
  rep.row();
  rep.set("variant", std::string("verlet"));
  rep.set("pairs_per_sec", verlet.pairs_per_sec);
  rep.set("best_ms", verlet.best_ms);
  rep.set("speedup", speedup);

  // One full build (binning, candidate scan, CSR assembly) per shape: the
  // cost every rebuild in the rows below pays.
  std::printf("\nvariant  shape        particles  ms/build\n");
  struct BuildCase {
    const char* shape;
    const dpd::DpdSystem* sys;
  };
  const auto channel = make_channel();
  for (const BuildCase& c : {BuildCase{"cdc2d_ckpt", &channel}, BuildCase{"periodic_12", &sys}}) {
    const double ms = best_build_ms(*c.sys);
    std::printf("build    %-11s  %9zu  %8.3f\n", c.shape, c.sys->size(), ms);
    rep.row();
    rep.set("variant", std::string("build"));
    rep.set("shape", std::string(c.shape));
    rep.set("n", static_cast<double>(c.sys->size()));
    rep.set("best_ms", ms);
  }

  // Rebuild frequency on a live run: fresh system per case, kLiveSteps of
  // real dynamics, rebuilds/reuses read off the neighbor-list counters. The
  // "flowbc" case opens the x faces to an inflow/outflow FlowBc, which
  // inserts and deletes particles every step; the list absorbs that churn
  // by patching itself instead of rebuilding, and each removal's index map
  // is either compacted into a kept list or dropped by the next rebuild.
  struct LiveCase {
    const char* variant;
    double skin;
    bool open;
  };
  std::printf(
      "\nvariant  skin   rebuilds/step  reuse-frac  pairs-in-list  compact/step  dropped/step\n");
  for (const LiveCase& c :
       {LiveCase{"live", 0.15, false}, LiveCase{"live", 0.3, false}, LiveCase{"live", 0.6, false},
        LiveCase{"flowbc", dpd::kDefaultSkin, true}}) {
    auto live = make_system(c.skin, c.open);
    dpd::FlowBcParams bp;
    bp.axis = 0;
    bp.density = kDensity;
    bp.target_velocity = [](const dpd::Vec3&) { return dpd::Vec3{1.0, 0.0, 0.0}; };
    dpd::FlowBc bc(bp);
    const auto& nl = live.neighbor_list();
    const std::size_t rb0 = nl.rebuilds(), ru0 = nl.reuses();
    const std::size_t cp0 = nl.compactions(), dr0 = nl.remaps_dropped();
    for (int s = 0; s < kLiveSteps; ++s) {
      live.step();
      if (c.open) bc.apply(live);
    }
    const double rebuilds = static_cast<double>(nl.rebuilds() - rb0);
    const double reuses = static_cast<double>(nl.reuses() - ru0);
    const double per_step = rebuilds / kLiveSteps;
    const double reuse_frac = reuses / (rebuilds + reuses);
    std::printf("%-7s  %.2f   %12.3f  %10.3f  %13zu", c.variant, c.skin, per_step, reuse_frac,
                nl.pair_count());
    rep.row();
    rep.set("variant", std::string(c.variant));
    rep.set("skin", c.skin);
    rep.set("steps", static_cast<double>(kLiveSteps));
    rep.set("rebuilds_per_step", per_step);
    rep.set("reuse_frac", reuse_frac);
    rep.set("list_pairs", static_cast<double>(nl.pair_count()));
    if (c.open) {
      const double compact = static_cast<double>(nl.compactions() - cp0) / kLiveSteps;
      const double dropped = static_cast<double>(nl.remaps_dropped() - dr0) / kLiveSteps;
      std::printf("  %12.3f  %12.3f", compact, dropped);
      rep.set("compact_per_step", compact);
      rep.set("remap_dropped_per_step", dropped);
    }
    std::printf("\n");
  }

  // Skin sweep at the cdc2d_ckpt DPD shape, x faces open to a FlowBc with
  // the coupled run's parabolic inflow (NS peak 1 scales to 5 in DPD
  // units; flow speed sets the rebuild rate). Per skin: ms per force pass
  // (the dpd.forces phase, full builds amortised over the run), ms per
  // whole step including the FlowBc churn (whose list compaction scales
  // with the list), full rebuilds per step, and the listed and in-range
  // (r < rc) pairs per pass, and the removal maps per step compacted into a
  // kept list and dropped by a rebuild. A thicker skin rebuilds less often
  // but lists more pairs that the pass must reject and the churn must
  // compact. Every
  // skin gets a fresh run in each of kRepeats rounds and reports its best;
  // interleaving the rounds spreads host noise evenly.
  struct SkinRow {
    double skin, best_ms = 0.0, step_ms = 0.0, rebuilds = 0.0, listed = 0.0, in_range = 0.0,
                 compact = 0.0, dropped = 0.0;
  };
  std::vector<SkinRow> skins;
  for (double skin : {0.15, 0.2, 0.25, 0.3, 0.4}) skins.push_back({skin});
  for (int r = 0; r < kRepeats; ++r)
    for (SkinRow& row : skins) {
      auto ch = make_channel(row.skin);
      dpd::FlowBcParams bp;
      bp.axis = 0;
      bp.density = kDensity;
      bp.relax = 0.3;
      bp.target_velocity = [](const dpd::Vec3& p) {
        return dpd::Vec3{0.2 * p.z * (10.0 - p.z), 0.0, 0.0};
      };
      dpd::FlowBc bc(bp);
      for (int s = 0; s < kWarmupSteps; ++s) {
        ch.step();
        bc.apply(ch);
      }
      telemetry::Registry::local().clear();
      const auto& nl = ch.neighbor_list();
      const std::size_t rb0 = nl.rebuilds(), cp0 = nl.compactions(), dr0 = nl.remaps_dropped();
      double listed = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int s = 0; s < kSkinSteps; ++s) {
        ch.step();
        listed += static_cast<double>(nl.pair_count());
        bc.apply(ch);
      }
      const double step_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count() /
          kSkinSteps;
      const auto phases = telemetry::Registry::local().phases();
      const telemetry::PhaseNode* step = phases.find("dpd.step");
      const telemetry::PhaseNode* forces = step ? step->find("dpd.forces") : nullptr;
      const auto in = telemetry::Registry::local().counters()["dpd.pairs.in_range"];
      if (!forces || forces->count == 0 || in.count == 0) std::abort();
      const double ms = 1e3 * forces->seconds / static_cast<double>(forces->count);
      if (r == 0 || ms < row.best_ms) row.best_ms = ms;
      if (r == 0 || step_ms < row.step_ms) row.step_ms = step_ms;
      row.rebuilds = static_cast<double>(nl.rebuilds() - rb0) / kSkinSteps;
      row.compact = static_cast<double>(nl.compactions() - cp0) / kSkinSteps;
      row.dropped = static_cast<double>(nl.remaps_dropped() - dr0) / kSkinSteps;
      row.listed = listed / kSkinSteps;
      row.in_range = in.value / static_cast<double>(in.count);
    }
  std::printf(
      "\nvariant  skin   ms/pass  ms/step  rebuilds/step  listed/pass  in-range/pass"
      "  compact/step  dropped/step\n");
  for (const SkinRow& row : skins) {
    std::printf("skin     %.2f  %7.3f  %7.3f  %13.3f  %11.0f  %13.0f  %12.3f  %12.3f\n", row.skin,
                row.best_ms, row.step_ms, row.rebuilds, row.listed, row.in_range, row.compact,
                row.dropped);
    rep.row();
    rep.set("variant", std::string("skin"));
    rep.set("shape", std::string("cdc2d_ckpt"));
    rep.set("skin", row.skin);
    rep.set("steps", static_cast<double>(kSkinSteps));
    rep.set("ms_per_pass", row.best_ms);
    rep.set("ms_per_step", row.step_ms);
    rep.set("rebuilds_per_step", row.rebuilds);
    rep.set("listed_pairs_per_pass", row.listed);
    rep.set("in_range_pairs_per_pass", row.in_range);
    rep.set("compact_per_step", row.compact);
    rep.set("remap_dropped_per_step", row.dropped);
  }
  // Lanes: the same cdc2d_ckpt-shaped FlowBc run with its force passes on
  // every idle core and inline (one_lane.hpp). Per variant: lanes per pass,
  // best ms per force pass over kLaneRounds interleaved rounds, and the
  // trajectory digest, which must not depend on the lane count; the gated
  // speed-up is the median of the rounds' ratios.
  struct LaneRow {
    const char* variant;
    double lanes = 0.0, best_ms = 0.0;
    std::uint64_t digest = 0;
  };
  LaneRow lane_rows[2] = {{"lanes"}, {"inline"}};
  // the lanes a pass outside xmp::run gets: the CPUs of this process's
  // affinity mask, capped (xmp/sched/lanes.hpp)
  const int width = xmp::lanes::width();
  // each round's inline over lanes ms: the two runs of a round are back to
  // back, so a slow spell of the host weighs on both
  std::vector<double> ratios;
  for (int r = 0; r < kLaneRounds; ++r) {
    double ms[2] = {0.0, 0.0};
    for (LaneRow& row : lane_rows) {
      auto pass = [&] {
        const LanePassTiming t = time_lane_passes();
        if (r == 0 || t.ms_per_pass < row.best_ms) row.best_ms = t.ms_per_pass;
        row.lanes = t.lanes_per_pass;
        if (r > 0 && t.digest != row.digest) std::abort();  // the run is deterministic
        row.digest = t.digest;
        ms[&row - lane_rows] = t.ms_per_pass;
      };
      if (&row == &lane_rows[0])
        pass();
      else
        on_one_lane(pass);
    }
    ratios.push_back(ms[1] / ms[0]);
  }
  std::sort(ratios.begin(), ratios.end());
  std::printf("\nvariant  lanes/pass  ms/pass  digest\n");
  for (const LaneRow& row : lane_rows) {
    std::printf("%-7s  %10.2f  %7.3f  %016llx\n", row.variant, row.lanes, row.best_ms,
                static_cast<unsigned long long>(row.digest));
    rep.row();
    rep.set("variant", std::string(row.variant));
    rep.set("shape", std::string("cdc2d_ckpt"));
    rep.set("steps", static_cast<double>(kSkinSteps));
    rep.set("lanes_per_pass", row.lanes);
    rep.set("ms_per_pass", row.best_ms);
  }
  const double lane_speedup = ratios[ratios.size() / 2];
  std::printf("DPD_LANES_SPEEDUP=%.2f (median over rounds; %.2f-%.2f)\n", lane_speedup,
              ratios.front(), ratios.back());
  rep.write();

  int status = 0;
  if (lane_rows[0].digest != lane_rows[1].digest) {
    std::printf("FAIL: trajectory digest depends on the lane count\n");
    status = 1;
  }
  std::printf("\nDPD_PAIRS_MIN_SPEEDUP=%.2f\n", kMinSpeedup);
  if (speedup < kMinSpeedup) {
    std::printf("FAIL: Verlet speedup below threshold\n");
    status = 1;
  }
  if (width >= 2) {
    std::printf("DPD_LANES_MIN_SPEEDUP=%.2f\n", kMinLaneSpeedup);
    if (lane_speedup < kMinLaneSpeedup) {
      std::printf("FAIL: lane speedup below threshold\n");
      status = 1;
    }
  } else {
    std::printf("DPD_LANES_MIN_SPEEDUP=n/a (one usable hardware thread)\n");
  }
  if (status == 0) std::printf("OK\n");
  return status;
}
