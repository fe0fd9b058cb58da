#include "model/partition.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <random>
#include <stdexcept>

namespace mesh {

namespace {

/// Bisect the sub-graph formed by `verts` into two sides with target load
/// fractions fa : (1-fa). Returns side assignment (0/1) per position in
/// `verts`.
std::vector<int> bisect(const ElementGraph& g, const std::vector<std::size_t>& verts,
                        double fa, const PartitionOptions& opt, std::mt19937& rng) {
  const std::size_t n = verts.size();
  std::vector<int> side(n, 1);
  if (n == 0) return side;

  // position of each vertex inside this sub-problem (SIZE_MAX = not in it)
  std::vector<std::size_t> pos(g.size(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n; ++i) pos[verts[i]] = i;

  double total = 0.0;
  for (std::size_t v : verts) total += g.vertex_weight(v);
  const double target_a = total * fa;

  // --- greedy BFS growth of side 0 from a pseudo-peripheral seed ---
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::size_t seed = pick(rng);
  // two BFS sweeps push the seed towards the graph periphery
  for (int sweep = 0; sweep < 2; ++sweep) {
    std::vector<int> dist(n, -1);
    std::queue<std::size_t> q;
    dist[seed] = 0;
    q.push(seed);
    std::size_t far = seed;
    while (!q.empty()) {
      const std::size_t u = q.front();
      q.pop();
      far = u;
      for (const auto& e : g.neighbors(verts[u])) {
        const std::size_t p = pos[e.to];
        if (p == static_cast<std::size_t>(-1) || dist[p] >= 0) continue;
        dist[p] = dist[u] + 1;
        q.push(p);
      }
    }
    seed = far;
  }

  {
    std::vector<char> in_a(n, 0);
    // grow side A by best-gain frontier expansion (cheap Kernighan-style
    // greedy): repeatedly absorb the frontier vertex with the most
    // connectivity into A.
    std::priority_queue<std::pair<double, std::size_t>> frontier;
    double load_a = 0.0;
    frontier.push({0.0, seed});
    std::vector<char> queued(n, 0);
    queued[seed] = 1;
    while (!frontier.empty() && load_a < target_a) {
      const auto [gain, u] = frontier.top();
      frontier.pop();
      if (in_a[u]) continue;
      in_a[u] = 1;
      load_a += g.vertex_weight(verts[u]);
      side[u] = 0;
      for (const auto& e : g.neighbors(verts[u])) {
        const std::size_t p = pos[e.to];
        if (p == static_cast<std::size_t>(-1) || in_a[p]) continue;
        // gain = connectivity to A (approximate; recomputation on pop is
        // skipped — greedy quality is restored by the FM pass below)
        frontier.push({e.weight, p});
        queued[p] = 1;
      }
      // if the frontier dries up but A is underweight (disconnected graph),
      // seed a new component
      if (frontier.empty() && load_a < target_a) {
        for (std::size_t i = 0; i < n; ++i)
          if (!in_a[i]) {
            frontier.push({0.0, i});
            break;
          }
      }
    }
  }

  // --- FM-style boundary refinement ---
  auto side_load = [&](int s) {
    double l = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      if (side[i] == s) l += g.vertex_weight(verts[i]);
    return l;
  };
  double load_a = side_load(0);
  const double max_a = target_a * opt.imbalance_tolerance;
  const double min_a = total - (total - target_a) * opt.imbalance_tolerance;

  for (int pass = 0; pass < opt.refinement_passes; ++pass) {
    bool moved = false;
    for (std::size_t i = 0; i < n; ++i) {
      // gain of flipping i = (cut weight to own side) - (cut weight to other)
      double to_own = 0.0, to_other = 0.0;
      bool boundary = false;
      for (const auto& e : g.neighbors(verts[i])) {
        const std::size_t p = pos[e.to];
        if (p == static_cast<std::size_t>(-1)) continue;
        if (side[p] == side[i])
          to_own += e.weight;
        else {
          to_other += e.weight;
          boundary = true;
        }
      }
      if (!boundary) continue;
      const double gain = to_other - to_own;
      if (gain <= 0.0) continue;
      const double w = g.vertex_weight(verts[i]);
      const double new_load_a = side[i] == 0 ? load_a - w : load_a + w;
      if (new_load_a > max_a || new_load_a < min_a) continue;
      side[i] = 1 - side[i];
      load_a = new_load_a;
      moved = true;
    }
    if (!moved) break;
  }

  // Strict rebalance: recursive bisection compounds per-level imbalance
  // multiplicatively, so pull each side back inside its window by moving
  // the cheapest boundary vertices even at negative cut gain.
  for (std::size_t guard = 0; guard < n && (load_a > max_a || load_a < min_a); ++guard) {
    const int from = load_a > max_a ? 0 : 1;
    double best_gain = -1e300;
    std::size_t best = static_cast<std::size_t>(-1);
    for (std::size_t i = 0; i < n; ++i) {
      if (side[i] != from) continue;
      double to_own = 0.0, to_other = 0.0;
      bool boundary = false;
      for (const auto& e : g.neighbors(verts[i])) {
        const std::size_t p = pos[e.to];
        if (p == static_cast<std::size_t>(-1)) continue;
        if (side[p] == side[i])
          to_own += e.weight;
        else {
          to_other += e.weight;
          boundary = true;
        }
      }
      const double gain = boundary ? to_other - to_own : -to_own;
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == static_cast<std::size_t>(-1)) break;
    const double w = g.vertex_weight(verts[best]);
    side[best] = 1 - from;
    load_a += from == 0 ? -w : w;
  }
  return side;
}

void recurse(const ElementGraph& g, std::vector<std::size_t> verts, int nparts, int first_part,
             const PartitionOptions& opt, std::mt19937& rng, std::vector<int>& out) {
  if (nparts == 1) {
    for (std::size_t v : verts) out[v] = first_part;
    return;
  }
  const int na = nparts / 2;
  const double fa = static_cast<double>(na) / nparts;
  auto side = bisect(g, verts, fa, opt, rng);
  std::vector<std::size_t> va, vb;
  for (std::size_t i = 0; i < verts.size(); ++i)
    (side[i] == 0 ? va : vb).push_back(verts[i]);
  recurse(g, std::move(va), na, first_part, opt, rng, out);
  recurse(g, std::move(vb), nparts - na, first_part + na, opt, rng, out);
}

}  // namespace

Partition partition_graph(const ElementGraph& g, int nparts, const PartitionOptions& opt) {
  if (nparts <= 0) throw std::invalid_argument("partition_graph: nparts must be positive");
  Partition p;
  p.nparts = nparts;
  p.part.assign(g.size(), 0);
  if (nparts == 1 || g.size() == 0) return p;
  std::mt19937 rng(opt.seed);
  std::vector<std::size_t> all(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) all[i] = i;
  recurse(g, std::move(all), nparts, 0, opt, rng, p.part);
  return p;
}

PartitionQuality evaluate_partition(const ElementGraph& g, const Partition& p) {
  PartitionQuality q;
  std::vector<double> load(static_cast<std::size_t>(p.nparts), 0.0);
  std::vector<double> comm(static_cast<std::size_t>(p.nparts), 0.0);
  for (std::size_t v = 0; v < g.size(); ++v) {
    load[static_cast<std::size_t>(p.part[v])] += g.vertex_weight(v);
    for (const auto& e : g.neighbors(v)) {
      if (p.part[e.to] == p.part[v]) continue;
      q.edge_cut += e.weight;  // counted twice, halved below
      comm[static_cast<std::size_t>(p.part[v])] += e.weight;
    }
  }
  q.edge_cut /= 2.0;
  for (double l : load) q.max_part_load = std::max(q.max_part_load, l);
  const double ideal = g.total_vertex_weight() / p.nparts;
  q.imbalance = ideal > 0.0 ? q.max_part_load / ideal : 0.0;
  for (double c : comm) {
    q.total_comm_volume += c;
    q.max_part_comm = std::max(q.max_part_comm, c);
  }
  return q;
}

std::vector<PartPairVolume> comm_volumes(const ElementGraph& g, const Partition& p) {
  std::map<std::pair<int, int>, double> acc;
  for (std::size_t v = 0; v < g.size(); ++v)
    for (const auto& e : g.neighbors(v)) {
      const int a = p.part[v], b = p.part[e.to];
      if (a >= b) continue;  // each undirected pair once
      acc[{a, b}] += e.weight;
    }
  std::vector<PartPairVolume> out;
  out.reserve(acc.size());
  for (const auto& [k, w] : acc) out.push_back({k.first, k.second, w});
  return out;
}

}  // namespace mesh
