// e2e_bench: one workload of the end-to-end benchmark per process (see
// README.md and run.py, which builds this binary and drives it).
//
//   e2e_bench --workload cdc2d_ckpt|cdc3d_sem|sweep_warm|dpd_dist2 --seed S
//             [--seconds T] [--trace] [--smoke] [--templates DIR]
//
// Prints `METRIC <name> <value> <unit>`, `CHECK ok|FAIL <what>`,
// `DIGEST <hex>` and a final `ATTEMPTS <attempted> <failed>` line, and
// writes BENCH_e2e_<workload>.json (plus TRACE_<workload>.json with --trace)
// into $NEKTARG_BENCH_DIR or the working directory; generated scenarios and
// checkpoints go to the working directory. Exit status: 0 when every check
// held, 1 when one failed, 2 on a bad command line or a scenario error.

#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "scenario/flags.hpp"
#include "scenario/json.hpp"

int main(int argc, char** argv) {
  e2e::Options o;
  o.templates = E2E_TEMPLATE_DIR;
  scenario::Flags flags("e2e_bench");
  flags.add_string("--workload", &o.workload,
                   "cdc2d_ckpt | cdc3d_sem | sweep_warm | dpd_dist2");
  flags.add_int("--seed", &o.seed, "seed of the generated inputs (default 1)");
  flags.add_int("--seconds", &o.seconds,
                "measuring budget: one timed run per 10 s, at least one");
  flags.add_flag("--trace", &o.trace,
                 "traced run: spans, per-layer metrics, TRACE_<workload>.json");
  flags.add_flag("--smoke", &o.smoke, "tiny sizes of every workload (smoke test)");
  flags.add_string("--templates", &o.templates, "directory of the workload templates");
  if (!flags.parse(argc, argv)) return 2;

  using Fn = void (*)(const e2e::Options&, e2e::Metrics&, e2e::Tally&);
  struct Entry {
    const char* name;
    Fn fn;
  };
  constexpr Entry kWorkloads[] = {{"cdc2d_ckpt", e2e::run_coupled},
                                  {"cdc3d_sem", e2e::run_coupled},
                                  {"sweep_warm", e2e::run_sweep},
                                  {"dpd_dist2", e2e::run_dpd_dist}};
  Fn fn = nullptr;
  for (const auto& w : kWorkloads)
    if (o.workload == w.name) fn = w.fn;
  if (!fn) {
    std::fprintf(stderr, "e2e_bench: unknown --workload \"%s\"\n", o.workload.c_str());
    return 2;
  }

  e2e::Metrics m;
  e2e::Tally t;
  try {
    fn(o, m, t);
  } catch (const scenario::JsonError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
  m.set("peak_rss_mb", e2e::peak_rss_mb(), "MiB");
  const double attempted = t.attempted();
  m.set("fail_ratio", attempted > 0 ? t.failed() / attempted : 1.0, "1");
  m.print();
  m.write_report(o);
  std::printf("ATTEMPTS %d %d\n", t.attempted(), t.failed());
  return t.failed() == 0 && t.attempted() > 0 ? 0 : 1;
}
