// The scenario driver of quickstart and coupled3d: flags (--help lists them),
// scenario load (file or the binary's preset, each --set applied to it), one
// scenario::Runner run or a --sweep ensemble, and an epilogue chosen by the
// scenario's kind (docs/SCENARIOS.md; docs/RESILIENCE.md covers restarts). A
// bad scenario or --set, and a flag the chosen mode would ignore (--pool
// without --sweep; --restart or --digest with it), exit 2; a run or epilogue
// that throws prints "run failed: <what>" and exits 1.

#include "driver.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "scenario/ensemble.hpp"
#include "scenario/flags.hpp"
#include "scenario/runner.hpp"

namespace {

int run_sweep(const scenario::Scenario& sc, const std::string& sweep_file, int pool) {
  scenario::EnsembleReport rep;
  std::vector<scenario::Variant> variants;
  try {
    const scenario::SweepSpec sweep = scenario::load_sweep_file(sweep_file);
    const scenario::Json base = scenario::serialize_scenario(sc);
    variants = scenario::EnsembleEngine::expand(base, sweep);
    scenario::EnsembleOptions eopts;
    eopts.pool = pool;
    rep = scenario::EnsembleEngine(base, sweep, eopts).run();
  } catch (const scenario::JsonError& e) {
    std::fprintf(stderr, "sweep error: %s\n", e.what());
    return 2;
  }
  std::printf("%-44s %-5s %-10s %s\n", "variant", "ok", "digest", "seconds");
  for (const auto& r : rep.variants) {
    const std::string& name = variants[r.index].name;
    if (r.ok)
      std::printf("%-44s %-5s %08x   %.2f\n", name.c_str(), "ok", r.digest, r.seconds);
    else
      std::printf("%-44s %-5s %s\n", name.c_str(), "FAIL", r.error.c_str());
  }
  std::printf("ensemble: %zu completed, %zu failed, %.2fs wall\n", rep.completed, rep.failed,
              rep.wall_seconds);
  return rep.failed == 0 ? 0 : 1;
}

// The epilogues print the continuum and DPD velocity profiles side by side:
// the sampler's bins span the coupling region's last axis, and the
// continuum is read at the bin heights through the region's centre.
void print_cdc(scenario::Runner& runner) {
  const auto& rg = runner.scenario().coupling.region;
  const auto profile = runner.sampler().snapshot();
  std::printf("%-8s %-14s %-14s\n", "y (NS)", "u continuum", "u DPD (scaled back)");
  for (std::size_t b = 0; b < profile.size(); ++b) {
    const double y = rg[2] + (rg[3] - rg[2]) * (static_cast<double>(b) + 0.5) /
                                 static_cast<double>(profile.size());
    const double u_ns = runner.eval_u(0.5 * (rg[0] + rg[1]), y);
    const double u_dpd = runner.scales().velocity_dpd_to_ns(profile[b]);
    std::printf("%-8.2f %-14.4f %-14.4f\n", y, u_ns, u_dpd);
  }
  std::printf("\nExchanges performed: %zu; DPD particles now: %zu "
              "(inserted %zu / deleted %zu by the flux BC)\n",
              runner.exchanges(), runner.dpd().size(), runner.flow_bc().inserted_total(),
              runner.flow_bc().deleted_total());
}

void print_cdc3d(scenario::Runner& runner) {
  const auto& rg = runner.scenario().coupling.region;
  const auto profile = runner.sampler().snapshot();
  std::printf("%-8s %-14s %-16s\n", "z (NS)", "u continuum", "u DPD (scaled back)");
  for (std::size_t b = 0; b < profile.size(); ++b) {
    const double z = rg[4] + (rg[5] - rg[4]) * (static_cast<double>(b) + 0.5) /
                                 static_cast<double>(profile.size());
    std::printf("%-8.2f %-14.4f %-16.4f\n", z,
                runner.eval_u(0.5 * (rg[0] + rg[1]), 0.5 * (rg[2] + rg[3]), z),
                runner.scales().velocity_dpd_to_ns(profile[b]));
  }
  std::printf("\n%zu exchanges; all three velocity components coupled (v, w ~ 0)\n",
              runner.exchanges());
}

}  // namespace

int drive_scenario(int argc, char** argv, const char* prog, const char* banner,
                   scenario::Scenario (*preset)()) {
  std::string scenario_file;
  std::vector<std::string> sets;
  std::string sweep_file;
  int pool = -1;
  std::string restart_dir;
  bool digest = false;
  scenario::Flags flags(prog);
  flags.add_string("--scenario", &scenario_file,
                   "scenario JSON file (default: built-in preset)");
  flags.add_strings("--set", &sets, "PATH=JSON: set one scenario value (repeatable)");
  flags.add_string("--sweep", &sweep_file,
                   "sweep JSON file: expand the scenario into an ensemble and run it");
  flags.add_int("--pool", &pool, "xmp rank pool for --sweep (default 0 = serial in-process)");
  flags.add_string("--restart", &restart_dir, "resume from a checkpoint directory");
  flags.add_flag("--digest", &digest, "print a CRC32 digest of the final state");
  if (!flags.parse(argc, argv)) return 2;

  // an unset --pool stays -1 and an unset string empty: flag them when given
  const bool sweeping = !sweep_file.empty();
  const char* ignored = nullptr;
  if (!sweeping && pool >= 0) ignored = "--pool";
  if (sweeping && !restart_dir.empty()) ignored = "--restart";
  if (sweeping && digest) ignored = "--digest";
  if (ignored) {
    flags.fail(std::string(ignored) + " has no effect " + (sweeping ? "with" : "without") +
               " --sweep");
    return 2;
  }

  std::printf("%s\n\n", banner);

  // --set PATH=JSON replaces a value the document already has (require_path,
  // as a sweep axis does); the result parses and validates like a file.
  scenario::Scenario sc;
  std::string at;  // the --set being applied, named by its error
  try {
    scenario::Json doc = scenario::serialize_scenario(
        scenario_file.empty() ? preset() : scenario::load_scenario_file(scenario_file));
    for (const std::string& set : sets) {
      at = "--set " + set + ": ";
      const std::size_t eq = set.find('=');
      if (eq == std::string::npos) throw scenario::JsonError("expected PATH=JSON");
      scenario::require_path(doc, set.substr(0, eq)) = scenario::Json::parse(&set[eq + 1]);
    }
    at.clear();
    sc = scenario::parse_scenario(doc);
  } catch (const scenario::JsonError& e) {
    std::fprintf(stderr, "scenario error: %s%s\n", at.c_str(), e.what());
    return 2;
  }

  if (sweeping) return run_sweep(sc, sweep_file, std::max(pool, 0));

  scenario::RunnerOptions opts;
  opts.restart_dir = restart_dir;
  opts.verbose = true;

  scenario::Runner runner(sc, opts);
  try {
    const scenario::RunResult res = runner.run();
    if (digest) {
      // CRC32 over the concatenated component states: two runs arriving at
      // the same interval must print the same digest (restart-equivalence
      // check).
      std::printf("STATE_DIGEST %08x\n", res.digest);
    } else if (sc.kind == "cdc") {
      print_cdc(runner);
    } else if (sc.kind == "cdc3d") {
      print_cdc3d(runner);
    } else {
      std::printf("1D network: t = %.4f at the end of the run\n", runner.network().time());
    }
  } catch (const resilience::SnapshotError& e) {
    std::fprintf(stderr, "restart failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
