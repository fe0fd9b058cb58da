#pragma once
// Telemetry core: per-rank scoped phase timers, counters and sample series.
//
// The per-rank store follows the xmp scheduler's rank context:
// Registry::local() first asks xmp::sched::rank_local_slot() for the current
// rank's storage (the slot migrates with the rank's fiber across worker
// threads, so attribution is per rank, never per OS thread) and only falls
// back to thread-local storage for plain threads — serial benches, tests
// and main(). Either way the registry is created on first use and
// registered in a process-wide list so exporters can enumerate every rank
// after a run finishes — the backing storage outlives the rank. A rank
// announces its identity once via bind_world_rank(); serial code simply uses
// the default rank -1, reported as "main".
//
// Phases nest: ScopedPhase("ns2d.step") { ScopedPhase("helmholtz.solve")
// { ScopedPhase("cg.solve") ... } } builds the hierarchical tree the paper's
// timing tables (Sec. 3.5, Tables 2-5) are about — solver / timestep /
// CG solve / interface exchange. Aggregation across ranks lives in
// report.hpp; exporters (human table, Chrome trace, bench JSON) in
// chrome_trace.hpp / bench_report.hpp.
//
// Cost model: instrumentation sites call the free helpers below, which are
// no-ops when telemetry is disabled; when enabled, a phase begin/end is two
// steady_clock reads plus an uncontended lock. Timeline recording (for
// Chrome traces) is off by default and opt-in per registry.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace telemetry {

/// Global on/off switch (default on). Disabling turns every instrumentation
/// helper into a cheap early-out; already-recorded data is kept.
bool enabled();
void set_enabled(bool on);

/// Aggregated snapshot of one phase in the nesting tree.
struct PhaseNode {
  std::string name;
  std::uint64_t count = 0;  ///< times entered
  double seconds = 0.0;     ///< inclusive wall time
  std::vector<PhaseNode> children;

  double child_seconds() const;
  double exclusive_seconds() const { return seconds - child_seconds(); }
  const PhaseNode* find(const std::string& child_name) const;
};

/// One closed phase instance on the rank's timeline (Chrome trace "X" event).
struct TimelineEvent {
  std::string name;
  double t0_us = 0.0;   ///< since the process-wide telemetry epoch
  double dur_us = 0.0;
  int depth = 0;
};

struct CounterValue {
  double value = 0.0;
  std::uint64_t count = 0;  ///< number of contributions
};

class Registry {
public:
  /// The calling rank's registry, or this thread's outside any rank (created
  /// and globally registered on first use).
  static Registry& local();
  /// Every registry created so far, in registration order. The shared_ptrs
  /// keep rank data alive after the ranks have finished.
  static std::vector<std::shared_ptr<Registry>> all();
  /// Clear recorded data in every registered registry (test isolation /
  /// between bench cases). Bindings and timeline enablement are kept.
  static void reset_all();

  void bind_world_rank(int r);
  int world_rank() const;

  void phase_begin(const char* name);
  void phase_end();
  void counter_add(const std::string& name, double v);
  /// Append one sample to a bounded series (silently stops at the cap).
  void series_append(const std::string& name, double v);
  void series_clear(const std::string& name);

  /// Record per-instance timeline events for Chrome trace export (off by
  /// default: unbounded in the number of phase entries).
  void set_timeline_enabled(bool on);

  // --- snapshots (safe from any thread) ---
  /// Root of the phase tree; root.name is empty, root.seconds is the sum of
  /// its children.
  PhaseNode phases() const;
  std::map<std::string, CounterValue> counters() const;
  std::map<std::string, std::vector<double>> series() const;
  std::vector<TimelineEvent> timeline() const;

  void clear();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RAII phase timer on the calling rank's registry.
class ScopedPhase {
public:
  explicit ScopedPhase(const char* name) : on_(enabled()) {
    if (on_) Registry::local().phase_begin(name);
  }
  ~ScopedPhase() {
    if (on_) Registry::local().phase_end();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

private:
  bool on_;
};

// --- free-function instrumentation helpers (no-ops when disabled) ---------

inline void count(const std::string& name, double v = 1.0) {
  if (enabled()) Registry::local().counter_add(name, v);
}
inline void sample(const std::string& name, double v) {
  if (enabled()) Registry::local().series_append(name, v);
}
inline void sample_reset(const std::string& name) {
  if (enabled()) Registry::local().series_clear(name);
}

}  // namespace telemetry
