#pragma once
// Shared pieces of the end-to-end benchmark (README.md): process options,
// seed derivation, the metric sink, the check tally, bench-side spans for
// traced runs, readers for the program's own telemetry registry, and the
// per-layer report every traced workload fills.
//
// All timing is taken from outside, around public entry points; the solver
// libraries get no instrumentation from this benchmark. The registry is
// only read after a run and cleared between runs. Generated inputs and
// checkpoints go to the working directory.

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "dpd/types.hpp"
#include "scenario/schema.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Back-to-back repeats behind the setup_s and restart_s medians.
inline constexpr int kSetupRepeats = 9;

/// Command-line settings of one benchmark process.
struct Options {
  std::string workload;
  int seed = 1;
  int seconds = 0;        ///< measuring budget; see time_legs
  bool trace = false;     ///< traced run instead of the timed legs
  bool smoke = false;     ///< tiny sizes for the smoke test
  std::string templates;  ///< directory of the checked-in workload templates
};

/// Seeds for the generated inputs, derived from --seed by splitmix64 so
/// neighbouring seeds give unrelated streams.
struct Seeds {
  std::uint32_t dpd = 0;      ///< dpd.seed: the DPD fill
  std::uint32_t flow_bc = 0;  ///< flow_bc.seed: the flux BC's insertion RNG
};
Seeds derive_seeds(int seed);

/// Load a checked-in scenario template, give it the seeds, apply the smoke
/// sizes, write it to <name>.scenario.json and load that file through
/// scenario::load_scenario_file, the same path a user's scenario takes.
/// Throws scenario::JsonError carrying the scenario diagnostic.
scenario::Scenario load_workload_scenario(const Options& o, const std::string& name);

/// Every metric the process reports, printed as `METRIC <name> <value> <unit>`
/// and written to BENCH_e2e_<workload>.json (schema nektarg-bench-v1).
class Metrics {
 public:
  struct Row {
    std::string name, unit;
    double value;
  };
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Row>& rows() const { return rows_; }
  void print() const;
  void write_report(const Options& o) const;

 private:
  std::vector<Row> rows_;
};

/// Checked calls into the workload: each call is one attempt, and it fails
/// when it throws or when a check on its outputs does not hold.
class Tally {
 public:
  template <class Fn>
  void attempt(const char* what, Fn&& fn) {
    ++attempted_;
    failing_ = false;
    try {
      fn();
    } catch (const std::exception& e) {
      expect(false, std::string(what) + " threw: " + e.what());
    }
    if (failing_) ++failed_;
  }
  /// Record one check of the current attempt (printed as a CHECK line).
  void expect(bool ok, const std::string& what);

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  int attempted_ = 0, failed_ = 0;
  bool failing_ = false;
};

/// The untraced legs every workload has, each call one checked attempt:
/// max(1, o.seconds / 10) runs of the entry point (`run` returns the seconds
/// of one), then kSetupRepeats builds with nothing to step (`setup`) and
/// kSetupRepeats resumes from the last checkpoint with nothing left to run
/// (`restart`). Reports run_s, setup_s and restart_s as medians.
void time_legs(const Options& o, Metrics& m, Tally& t, const std::function<double()>& run,
               const std::function<double()>& setup, const std::function<double()>& restart);

/// One process prints `DIGEST <hex>` for its final state (the smoke test
/// compares digests across seeds).
void print_digest(std::uint64_t digest);

double median(const std::vector<double>& v);
/// Percentile by linear interpolation (q in [0, 1]); 0 for an empty list.
double percentile(std::vector<double> v, double q);

// --- bench-side spans (traced runs) ----------------------------------------

/// One closed span: a call into a layer, or a structural region of the
/// workload ("run", "develop", "interval", "restart"). Layer spans are
/// named "<layer>.<call>"; names without a dot are structural.
struct Span {
  const char* name;
  double t0_s = 0.0, t1_s = 0.0;  ///< since the process-wide span epoch
  int parent = -1;                ///< index into the same list, -1 at a root
  int run = 0;                    ///< spans of one run share this id
  int rank = 0;
  double seconds() const { return t1_s - t0_s; }
};

/// In-memory span log of one rank. Not thread-safe: give every xmp rank its
/// own log and merge them after the run.
class SpanLog {
 public:
  explicit SpanLog(int rank = 0) : rank_(rank) {}
  void set_run(int run) { run_ = run; }
  int open(const char* name);
  void close(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
  int rank_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Spans of all ranks in one list, parent indices rebased.
std::vector<Span> merge(const std::vector<SpanLog>& logs);
/// Durations of every span with this name.
std::vector<double> durations(const std::vector<Span>& spans, const std::string& name);
double sum(const std::vector<double>& v);

/// Self-time split of a span list: a span's self time is its duration
/// minus the time its direct children cover.
struct SpanSplit {
  double root_s = 0.0;          ///< summed duration of the root spans
  double unattributed_s = 0.0;  ///< self time of structural spans
  /// Self time of the layer spans of one layer ("sem" covers "sem.step"...).
  double layer_s(const std::string& layer) const;
  std::vector<std::pair<std::string, double>> layers;
};
/// Split the spans of one run id (-1: every run).
SpanSplit split(const std::vector<Span>& spans, int run = -1);

/// Write TRACE_<workload>.json (spans, layer self times and the per-layer
/// metrics) into $NEKTARG_BENCH_DIR or the working directory.
void write_trace(const Options& o, const std::vector<Span>& spans, const Metrics& metrics);

// --- the program's telemetry registry, read after a run --------------------

/// Inclusive seconds and entry count of every phase with this name, summed
/// over all registries (every rank) and all nesting paths.
struct PhaseTotal {
  double seconds = 0.0;
  double count = 0.0;
};
PhaseTotal phase_total(const std::string& name);
/// Counter total over all registries (0 when never counted).
double counter_total(const std::string& name);
/// Per-instance durations of a phase from the timeline of the calling
/// context's registry (timeline recording must have been enabled).
std::vector<double> timeline_durations(const std::string& name);

// --- per-layer report --------------------------------------------------------

/// Inputs of every per-layer metric. Each traced workload fills what its
/// layers do; a layer a workload never enters reads 0. Times and particle
/// steps are summed over ranks; per-step figures divide by global steps.
struct LayerReport {
  std::vector<double> interval_s;   ///< coupling interval durations
  std::vector<double> sem_step_s;   ///< durations of the SEM steps
  double sem_nodes = 0;
  std::vector<double> dpd_step_s;   ///< durations of the DPD steps (all ranks)
  double dpd_steps = 0;             ///< global DPD steps
  double particle_steps = 0;        ///< particles advanced, summed over steps
  double listed_pairs = 0;          ///< Verlet-list entries, summed over steps
  double flowbc_apply_s = 0, flowbc_inserted = 0, flowbc_deleted = 0;
  double sampler_s = 0;
  double rank_imbalance = 0;        ///< max/mean of per-rank DPD step time
  double xmp_msgs = 0, xmp_bytes = 0;
  double table_hit_ratio = 0;
  double develop_steps = 0;
  std::vector<double> variant_s;    ///< wall time of each scenario run
  double unattributed_share = 0;
  double overhead_ratio = 0;
  double sem_share = 0, dpd_share = 0;
};

/// Emit every per-layer metric: the fields above plus what the program's
/// telemetry registry recorded (CG, DPD force/neighbor/integrate phases,
/// halo exchange, checkpoint I/O).
void emit_layers(const LayerReport& r, Metrics& m);

// --- physics checks ---------------------------------------------------------

/// Kinetic temperature of the peculiar velocities: the mean flow of each of
/// nbx x nbz bins over the box (x by z) is subtracted first, so a sheared or
/// driven flow still reads kBT. Unbiased for the per-bin means.
double peculiar_temperature(const std::vector<dpd::Vec3>& pos,
                            const std::vector<dpd::Vec3>& vel, const dpd::Vec3& box);
bool all_finite(const std::vector<dpd::Vec3>& v);

/// Peak resident set size of this program in MiB (VmHWM).
double peak_rss_mb();

// --- workloads ----------------------------------------------------------------

/// cdc2d_ckpt and cdc3d_sem: one scenario through scenario::Runner.
void run_coupled(const Options& o, Metrics& m, Tally& t);
/// sweep_warm: a warm-started serial sweep through scenario::EnsembleEngine.
void run_sweep(const Options& o, Metrics& m, Tally& t);
/// dpd_dist2: DistributedDpd over two fiber-scheduled xmp ranks.
void run_dpd_dist(const Options& o, Metrics& m, Tally& t);

}  // namespace e2e
