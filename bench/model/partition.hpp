#pragma once
// Graph partitioner standing in for METIS_PartGraphRecursive: recursive
// bisection (greedy BFS region growing + boundary Fiduccia–Mattheyses-style
// refinement) honouring vertex and edge weights. Quality metrics and the
// partition-to-communication-schedule conversion used by the Table 2 bench
// live here too.

#include <cstddef>
#include <vector>

#include "model/graph.hpp"

namespace mesh {

struct PartitionOptions {
  double imbalance_tolerance = 1.01;  ///< max part load / ideal load
  int refinement_passes = 8;
  unsigned seed = 42;                 ///< BFS seed-vertex selection
};

struct Partition {
  std::vector<int> part;  ///< vertex -> part id
  int nparts = 0;
};

Partition partition_graph(const ElementGraph& g, int nparts, const PartitionOptions& opt = {});

struct PartitionQuality {
  double edge_cut = 0.0;           ///< total weight of cut edges
  double max_part_load = 0.0;      ///< heaviest part (vertex weight)
  double imbalance = 0.0;          ///< max load / ideal load
  double total_comm_volume = 0.0;  ///< sum over parts of boundary weight
  double max_part_comm = 0.0;      ///< largest per-part boundary weight
};

PartitionQuality evaluate_partition(const ElementGraph& g, const Partition& p);

/// Per-pair communication volume implied by a partition: entry {a,b,w} means
/// parts a and b exchange halo data of weight w each step (w = sum of cut
/// edge weights between them). Feed to the machine cost model with
/// bytes-per-dof scaling.
struct PartPairVolume {
  int a = 0, b = 0;
  double weight = 0.0;
};
std::vector<PartPairVolume> comm_volumes(const ElementGraph& g, const Partition& p);

}  // namespace mesh
