// Ensemble throughput: run an inlet-velocity sweep of the quickstart
// scenario cold (every variant develops its flow from rest) and warm
// (WarmMode::State — each variant seeds its continuum from the nearest
// completed parameter point and its tolerance-terminated develop phase
// collapses). Prints per-variant CG-iteration and develop-step counts,
// scenarios/hour and ENSEMBLE_WARMSTART_SAVING (the fraction of develop
// steps the warm starts save) for CI to grep, and writes
// BENCH_ensemble.json. Exits non-zero when the saving is not finite or
// falls below the gate (override with NEKTARG_ENSEMBLE_MIN_WARMSTART_SAVING;
// default is a loose 0.0 — CI runs with 0.20).
//
// Flags: --variants N (default 8)   sweep size (umax = 1.0, 1.02, ...)
//        --pool N     (default 0)   xmp rank pool; 0 = serial in-process

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "scenario/ensemble.hpp"
#include "scenario/flags.hpp"
#include "scenario/presets.hpp"
#include "telemetry/bench_report.hpp"

namespace {

scenario::Json base_doc() {
  scenario::Scenario sc = scenario::quickstart_preset();
  sc.name = "ensemble-bench";
  sc.time.intervals = 2;
  sc.time.sample_from = 0;
  // Tolerance-terminated develop phase: this is what a warm start collapses.
  // The per-step delta floors near 1e-15 (rounding: the box-mesh solves are
  // exact, so no CG residual is left over), so 3e-8 is safely reachable
  // (~1500 steps from rest on the quickstart mesh).
  sc.time.develop_steps = 3000;
  sc.time.develop_tol = 3e-8;
  return scenario::Json::parse(scenario::scenario_to_json(sc));
}

scenario::SweepSpec umax_sweep(int n) {
  scenario::SweepAxis axis;
  axis.path = "sem.inlet_umax";
  for (int i = 0; i < n; ++i) axis.values.push_back(scenario::Json(1.0 + 0.02 * i));
  scenario::SweepSpec sweep;
  sweep.axes.push_back(axis);
  return sweep;
}

scenario::EnsembleReport run(const scenario::Json& base, const scenario::SweepSpec& sweep,
                             int pool, scenario::WarmMode warm) {
  scenario::EnsembleOptions opts;
  opts.pool = pool;
  opts.warm = warm;
  return scenario::EnsembleEngine(base, sweep, opts).run();
}

}  // namespace

int main(int argc, char** argv) {
  int variants = 8;
  int pool = 0;
  scenario::Flags flags("extra_ensemble");
  flags.add_int("--variants", &variants, "sweep size (inlet umax values)");
  flags.add_int("--pool", &pool, "xmp rank pool (0 = serial)");
  if (!flags.parse(argc, argv)) return 2;

  std::printf("=== Ensemble warm starts: %d-variant inlet-velocity sweep (pool=%d) ===\n\n",
              variants, pool);

  const scenario::Json base = base_doc();
  const scenario::SweepSpec sweep = umax_sweep(variants);
  const auto cold = run(base, sweep, pool, scenario::WarmMode::Off);
  const auto warm = run(base, sweep, pool, scenario::WarmMode::State);

  std::printf("%-28s %12s %12s %12s %12s %6s\n", "variant", "cold CG", "warm CG",
              "cold dev", "warm dev", "donor");
  telemetry::BenchReport rep("ensemble");
  rep.meta("variants", static_cast<double>(variants));
  rep.meta("pool", static_cast<double>(pool));
  rep.meta("warm_mode", "state");
  for (int i = 0; i < variants; ++i) {
    const auto& c = cold.variants[static_cast<std::size_t>(i)];
    const auto& w = warm.variants[static_cast<std::size_t>(i)];
    if (!c.ok || !w.ok) {
      std::fprintf(stderr, "variant %d failed: %s\n", i, (c.ok ? w.error : c.error).c_str());
      return 1;
    }
    char label[32];
    std::snprintf(label, sizeof label, "umax=%.2f", 1.0 + 0.02 * i);
    std::printf("%-28s %12llu %12llu %12llu %12llu %6lld\n", label,
                static_cast<unsigned long long>(c.cg_iters),
                static_cast<unsigned long long>(w.cg_iters),
                static_cast<unsigned long long>(c.develop_steps),
                static_cast<unsigned long long>(w.develop_steps),
                static_cast<long long>(w.warm_source));
    rep.row();
    rep.set("variant", static_cast<double>(i));
    rep.set("cold_cg", static_cast<double>(c.cg_iters));
    rep.set("warm_cg", static_cast<double>(w.cg_iters));
    rep.set("cold_develop_steps", static_cast<double>(c.develop_steps));
    rep.set("warm_develop_steps", static_cast<double>(w.develop_steps));
    rep.set("warm_source", static_cast<double>(w.warm_source));
  }

  // the box-mesh solves take 0 CG iterations cold or warm, so the saving is
  // counted in develop steps
  const double saving =
      1.0 - static_cast<double>(warm.develop_total) / static_cast<double>(cold.develop_total);
  const double cold_sph = 3600.0 * static_cast<double>(variants) / cold.wall_seconds;
  const double warm_sph = 3600.0 * static_cast<double>(variants) / warm.wall_seconds;
  std::printf("\ncold: %llu develop steps, %llu CG iters, %.1f s (%.0f scenarios/hour)\n",
              static_cast<unsigned long long>(cold.develop_total),
              static_cast<unsigned long long>(cold.cg_total), cold.wall_seconds, cold_sph);
  std::printf("warm: %llu develop steps, %llu CG iters, %.1f s (%.0f scenarios/hour), "
              "%zu/%zu shared-table hits\n",
              static_cast<unsigned long long>(warm.develop_total),
              static_cast<unsigned long long>(warm.cg_total), warm.wall_seconds, warm_sph,
              warm.shared_hits, warm.shared_hits + warm.shared_misses);
  std::printf("ENSEMBLE_SCENARIOS_PER_HOUR=%.1f\n", warm_sph);
  std::printf("ENSEMBLE_WARMSTART_SAVING=%.3f\n", saving);

  rep.meta("cold_develop_total", static_cast<double>(cold.develop_total));
  rep.meta("warm_develop_total", static_cast<double>(warm.develop_total));
  rep.meta("cold_cg_total", static_cast<double>(cold.cg_total));
  rep.meta("warm_cg_total", static_cast<double>(warm.cg_total));
  rep.meta("cold_wall_seconds", cold.wall_seconds);
  rep.meta("warm_wall_seconds", warm.wall_seconds);
  rep.meta("scenarios_per_hour", warm_sph);
  rep.meta("warmstart_saving", saving);
  rep.meta("shared_hits", static_cast<double>(warm.shared_hits));
  rep.meta("shared_misses", static_cast<double>(warm.shared_misses));
  rep.write();

  double min_saving = 0.0;  // loose by default; CI gates at 0.20
  if (const char* v = std::getenv("NEKTARG_ENSEMBLE_MIN_WARMSTART_SAVING"))
    min_saving = std::atof(v);
  std::printf("ENSEMBLE_MIN_WARMSTART_SAVING=%.2f\n", min_saving);
  if (!std::isfinite(saving) || saving < min_saving) {
    std::fprintf(stderr, "FAIL: warm-start saving %.3f below gate %.2f\n", saving, min_saving);
    return 1;
  }
  return 0;
}
