#pragma once
// Cost model replaying communication/computation schedules on the modeled
// torus. A *phase* is a set of messages that are all in flight concurrently
// (e.g., the halo exchange of one CG iteration, or one step of the 3-step
// inter-patch exchange). Phase time combines
//   * link contention: the most loaded directed link bounds the phase,
//   * injection: the DMA drives a node's 6 links concurrently, so loads
//     leaving by different first-hop directions drain in parallel; a naive
//     schedule keeps only one message outstanding, serialising the node's
//     entire outgoing volume,
//   * latency: per-hop plus per-message software overhead on the critical
//     path.

#include <vector>

#include "model/torus.hpp"

namespace machine {

struct Message {
  int src_rank = 0;
  int dst_rank = 0;
  double bytes = 0.0;
};

enum class InjectionSchedule {
  Naive,           ///< one outstanding message per node at a time
  MultiDirection,  ///< keep all injection channels busy (paper Sec. 3.5)
};

struct PhaseCostBreakdown {
  double link_time = 0.0;       ///< most-loaded-link transfer time
  double injection_time = 0.0;  ///< node injection serialisation
  double latency_time = 0.0;    ///< hop latency + software overhead
  double total() const;
};

/// Time for one phase of concurrent messages.
PhaseCostBreakdown phase_cost(const Torus& torus, const std::vector<Message>& phase,
                              Routing routing = Routing::DeterministicXYZ,
                              InjectionSchedule sched = InjectionSchedule::MultiDirection);

/// Compute-side model. `cache_bytes` drives the superlinear strong-scaling
/// effect seen in Table 5: when the per-core working set drops below cache,
/// the effective rate rises towards peak.
struct ComputeSpec {
  double flops_per_sec = 3.4e9;      ///< per-core sustained peak
  double cache_bytes = 8u << 20;     ///< per-core share of cache hierarchy
  double out_of_cache_slowdown = 2.2;///< rate divisor for fully-uncached data
};

/// Time to execute `flops` on one core touching `working_set_bytes`.
double compute_time(const ComputeSpec& spec, double flops, double working_set_bytes);

/// A schedule is an alternating sequence of per-rank compute work and
/// communication phases; replay() accumulates modeled wall-clock for one
/// timestep (ranks synchronise at each comm phase, so per-step time is the
/// max compute among ranks plus each phase's cost).
struct StepSchedule {
  /// flops[i], working_set[i] for each participating rank (max is taken).
  std::vector<double> flops;
  std::vector<double> working_set;
  std::vector<std::vector<Message>> phases;
};

struct ReplayResult {
  double compute_time = 0.0;
  double comm_time = 0.0;
  double total() const { return compute_time + comm_time; }
};

ReplayResult replay_step(const Torus& torus, const ComputeSpec& cspec, const StepSchedule& s,
                         Routing routing = Routing::DeterministicXYZ,
                         InjectionSchedule sched = InjectionSchedule::MultiDirection);

}  // namespace machine
