#include "model/cost.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace machine {

namespace {
// The three cyclic dimension orders adaptive routing spreads load over; the
// first is the deterministic XYZ order.
constexpr std::array<std::array<int, 3>, 3> kDimOrders = {{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}};
}  // namespace

double PhaseCostBreakdown::total() const { return link_time + injection_time + latency_time; }

PhaseCostBreakdown phase_cost(const Torus& torus, const std::vector<Message>& phase,
                              Routing routing, InjectionSchedule sched) {
  PhaseCostBreakdown out;
  if (phase.empty()) return out;
  const TorusSpec& spec = torus.spec();

  // --- link contention ---
  // Each message is spread over `ways` minimal routes (1 when deterministic);
  // each carries an equal share.
  const int ways = routing == Routing::Adaptive ? static_cast<int>(kDimOrders.size()) : 1;
  std::unordered_map<std::int64_t, double> link_load;
  int max_hops = 0;
  for (const auto& m : phase) {
    const int a = torus.node_of_rank(m.src_rank);
    const int b = torus.node_of_rank(m.dst_rank);
    if (a == b) continue;  // intra-node: memory copy, modeled as free
    max_hops = std::max(max_hops, torus.hops(a, b));
    for (int w = 0; w < ways; ++w)
      for (const Link& l : torus.route(a, b, kDimOrders[static_cast<std::size_t>(w)]))
        link_load[torus.link_key(l)] += m.bytes / ways;
  }
  double max_link = 0.0;
  for (const auto& [k, v] : link_load) max_link = std::max(max_link, v);
  out.link_time = max_link / spec.link_bandwidth;

  // --- injection serialisation at the source nodes ---
  // MultiDirection: loads sharing a first-hop direction drain serially,
  // distinct directions in parallel.
  // Naive: the node's entire outgoing volume drains serially.
  std::unordered_map<std::int64_t, double> inject;
  std::unordered_map<int, std::size_t> msgs_per_node;
  for (const auto& m : phase) {
    const int a = torus.node_of_rank(m.src_rank);
    const int b = torus.node_of_rank(m.dst_rank);
    if (a == b) continue;
    msgs_per_node[a]++;
    if (sched == InjectionSchedule::MultiDirection) {
      inject[torus.link_key(torus.first_hop(a, b))] += m.bytes;
    } else {
      inject[a] += m.bytes;  // keyed by node only: fully serial
    }
  }
  double max_inject = 0.0;
  for (const auto& [k, v] : inject) max_inject = std::max(max_inject, v);
  out.injection_time = max_inject / spec.link_bandwidth;

  // --- latency: deepest route + per-message software overhead on the
  //     busiest node (messages issued back-to-back cost sw_overhead each) ---
  std::size_t max_msgs = 0;
  for (const auto& [n, c] : msgs_per_node) max_msgs = std::max(max_msgs, c);
  out.latency_time =
      spec.hop_latency * max_hops + spec.sw_overhead * static_cast<double>(max_msgs);
  return out;
}

double compute_time(const ComputeSpec& spec, double flops, double working_set_bytes) {
  if (flops <= 0.0) return 0.0;
  double rate = spec.flops_per_sec;
  if (working_set_bytes > spec.cache_bytes && spec.cache_bytes > 0.0) {
    // Fraction of traffic served from memory scales the rate down smoothly
    // between the in-cache and fully-uncached regimes.
    const double uncached = 1.0 - spec.cache_bytes / working_set_bytes;
    rate /= 1.0 + (spec.out_of_cache_slowdown - 1.0) * uncached;
  }
  return flops / rate;
}

ReplayResult replay_step(const Torus& torus, const ComputeSpec& cspec, const StepSchedule& s,
                         Routing routing, InjectionSchedule sched) {
  ReplayResult r;
  for (std::size_t i = 0; i < s.flops.size(); ++i) {
    const double ws = i < s.working_set.size() ? s.working_set[i] : 0.0;
    r.compute_time = std::max(r.compute_time, compute_time(cspec, s.flops[i], ws));
  }
  for (const auto& phase : s.phases) r.comm_time += phase_cost(torus, phase, routing, sched).total();
  return r;
}

}  // namespace machine
