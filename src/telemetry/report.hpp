#pragma once
// analyze: unreached-ok (ROADMAP item 1: the run's report aggregates through it)
// Cross-rank aggregation of the per-rank phase trees and counters.
//
// Every rank serialises its thread-local Registry snapshot to a flat text
// form and the report is reduced at the root with the existing gatherv
// collective — no new communication primitives. The result is the
// hierarchical phase table of the paper's timing breakdowns: solver /
// timestep / CG solve / interface exchange, with min/avg/max over ranks and
// the rank holding the max (the load-imbalance witness).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "xmp/comm.hpp"

namespace telemetry {

/// One phase path ("ns2d.step/helmholtz.solve/cg.solve") aggregated over the
/// ranks that entered it.
struct PhaseStats {
  std::string path;
  int depth = 0;             ///< nesting depth (path component count - 1)
  int ranks = 0;             ///< how many ranks reported this phase
  std::uint64_t count = 0;   ///< total entries summed over ranks
  double min_s = 0.0;
  double avg_s = 0.0;
  double max_s = 0.0;
  int max_rank = -1;         ///< comm rank holding max_s
};

struct CounterStats {
  std::string name;
  int ranks = 0;
  double total = 0.0;
  double min = 0.0;
  double avg = 0.0;
  double max = 0.0;
};

struct Report {
  std::vector<PhaseStats> phases;     ///< pre-order over the merged tree
  std::vector<CounterStats> counters; ///< sorted by name
};

/// Collective over `comm`: each rank contributes its calling thread's
/// Registry::local() snapshot; `root` returns the merged report, other ranks
/// return an empty one.
Report aggregate(const xmp::Comm& comm, int root = 0);

/// Aggregate explicit snapshots (serial benches, tests): entry i is treated
/// as rank i.
Report aggregate(const std::vector<std::shared_ptr<Registry>>& regs);

/// Human-readable indented table.
std::string format(const Report& r);

}  // namespace telemetry
