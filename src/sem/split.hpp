#pragma once
// How the SEM passes share the intra-rank lanes (xmp/sched/lanes.hpp). A
// pass over a field of at least kSplitNodes nodes splits over every lane
// the pool offers; a smaller one runs inline, so the 2D meshes' many short
// passes pay no fork-join. Either way the pass computes the same bits:
// lanes write disjoint outputs and anything summed across lanes' work is
// summed afterwards in a fixed order (docs/PERF.md "Intra-rank lanes").

#include <cstddef>

#include "telemetry/registry.hpp"
#include "xmp/sched/lanes.hpp"

namespace sem {

/// Nodes a field needs before its passes split: where a split of the
/// fast-diagonalisation transforms' rows starts to pay for its fork-join
/// (the element sweeps already pay from about 600 nodes; one constant
/// serves both). Measured by extra_sem3d_kernel's size sweep (docs/PERF.md
/// "Intra-rank lanes").
inline constexpr std::size_t kSplitNodes = 4096;

/// Lanes a pass over a field of `nodes` nodes is offered.
inline int split_lanes(std::size_t nodes) {
  return nodes >= kSplitNodes ? xmp::lanes::width() : 1;
}

/// fn(lo, hi, lane) over chunks of [0, n) on `want` lanes (split_lanes). A
/// pass offered more than one lane adds the lanes it used to the sem.lanes
/// counter, on the calling thread; an inline pass counts nothing.
template <class Fn>
void split(int want, std::size_t n, Fn&& fn) {
  const xmp::lanes::Pass pass = xmp::lanes::for_chunks(want, n, fn);
  if (want > 1) telemetry::count("sem.lanes", static_cast<double>(pass.lanes));
}

}  // namespace sem
