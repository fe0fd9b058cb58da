#pragma once
// EnsembleEngine — execute N scenario variants (a base document plus a JSON
// sweep spec) batched across an xmp rank pool. The paper's paradigm treats a
// multiscale run as a composable unit of work; the ensemble layer treats
// *whole runs* the same way: variants are dispatched to a master/worker rank
// pool (pull-based, so fast workers take the remaining work), a failing
// variant is isolated by the resilience machinery (InjectedFault / any
// exception is caught per variant, siblings are unaffected), and
// cross-variant redundancy is exploited:
//   * identical meshes share discretization/gather-scatter tables per rank
//     (SharedTables),
//   * each variant warm-starts from the checkpoint-format continuum state of
//     its donor (WarmMode::State collapses the develop phase: the saving
//     shows in develop steps, since box-mesh solves take 0 CG iterations cold
//     or warm).
// The donor is fixed when the sweep is expanded: the nearest earlier variant
// by the normalized sweep coordinates, ties to the lower index. A pool worker
// takes the lowest-index variant whose donor has finished (any variant with
// warm starts off), so serial and pool runs return the same per-variant
// results. A variant whose donor failed, or left no warm state, starts cold.

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/runner.hpp"

namespace scenario {

/// One sweep dimension: a dotted path into the scenario document plus the
/// values it takes. The path must already exist in the base document
/// (require_path) — a sweep can tune knobs, never invent them.
struct SweepAxis {
  std::string path;
  std::vector<Json> values;
};

/// Sweep document, e.g.
///   {"mode": "cross", "axes": [{"path": "sem.inlet_umax",
///                               "values": [0.9, 1.0, 1.1]}]}
/// mode "cross" = cartesian product, "zip" = parallel iteration (all axes
/// must have equal length). No two axes may set the same value: equal
/// paths, or one path a dotted prefix of the other, are an error.
struct SweepSpec {
  std::string mode = "cross";
  std::vector<SweepAxis> axes;

  static SweepSpec parse(const Json& doc);
};

/// Read + parse a sweep JSON file; diagnostics carry the file path and the
/// offending JSON path ("sweeps.json: sweep: $.axes[1].values: ...").
SweepSpec load_sweep_file(const std::string& path);

/// One expanded variant: the base document with overrides applied, plus its
/// warm-start donor, fixed at expansion.
struct Variant {
  std::size_t index = 0;
  std::string name;
  Json doc;
  /// The nearest earlier variant by Euclidean distance over the override
  /// values normalized per axis to [0, 1], ties to the lower index; -1 for
  /// variant 0.
  std::int64_t donor = -1;
};

struct VariantResult {
  std::size_t index = 0;
  bool ok = false;
  std::string error;
  std::uint32_t digest = 0;
  std::uint64_t cg_iters = 0;
  std::uint64_t develop_steps = 0;
  double seconds = 0.0;
  std::int64_t warm_source = -1;  ///< donor variant index, -1 = cold start
  int rank = 0;                   ///< pool rank that executed this variant
};

struct EnsembleOptions {
  /// xmp ranks for the pool (rank 0 is the dispatcher, ranks 1.. are
  /// workers). <= 1 runs every variant serially in-process.
  int pool = 0;
  WarmMode warm = WarmMode::Off;
  /// Optional failure injection: variant k runs with fault_id = k, so
  /// plan.kill_rank(k, step) kills exactly that variant.
  resilience::FaultPlan* fault_plan = nullptr;
};

struct EnsembleReport {
  std::vector<VariantResult> variants;  ///< by variant index
  double wall_seconds = 0.0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::uint64_t cg_total = 0;       ///< over completed variants
  std::uint64_t develop_total = 0;  ///< develop steps over completed variants
  std::size_t shared_hits = 0;      ///< discretization-table cache hits
  std::size_t shared_misses = 0;
};

class EnsembleEngine {
 public:
  EnsembleEngine(Json base_doc, SweepSpec sweep, EnsembleOptions opts = {});

  /// Expand base + sweep into the variant list (deterministic order:
  /// last axis fastest for "cross").
  static std::vector<Variant> expand(const Json& base, const SweepSpec& sweep);

  EnsembleReport run();

 private:
  EnsembleReport run_serial(const std::vector<Variant>& variants);
  EnsembleReport run_pool(const std::vector<Variant>& variants);
  VariantResult run_variant(const Variant& v, SharedTables& tables,
                            const std::vector<std::uint8_t>& donor_blob,
                            std::vector<std::uint8_t>& warm_out);

  Json base_;
  SweepSpec sweep_;
  EnsembleOptions opts_;
};

}  // namespace scenario
