// Tests for element graphs, the partitioner, and the masked quad mesh.

#include <gtest/gtest.h>

#include <set>

#include "mesh/quadmesh.hpp"
#include "model/graph.hpp"
#include "model/partition.hpp"

namespace {

// ---------------- graphs ----------------

TEST(Graph, QuadGridFaceOnlyCounts) {
  auto g = mesh::quad_grid_graph(4, 3, 6, mesh::AdjacencyPolicy::FaceOnly);
  EXPECT_EQ(g.size(), 12u);
  // edges: 3*3 horizontal + 4*2 vertical = 17
  EXPECT_EQ(g.num_edges(), 17u);
}

TEST(Graph, QuadGridFullAddsCorners) {
  auto face = mesh::quad_grid_graph(4, 3, 6, mesh::AdjacencyPolicy::FaceOnly);
  auto full = mesh::quad_grid_graph(4, 3, 6, mesh::AdjacencyPolicy::FullDofWeighted);
  // corners: 2 * 3 * 2 = 12 diagonal links
  EXPECT_EQ(full.num_edges(), face.num_edges() + 12u);
  // face links carry (P+1) weight in full mode
  bool found_heavy = false, found_light = false;
  for (const auto& e : full.neighbors(0)) {
    if (e.weight == 7.0) found_heavy = true;
    if (e.weight == 1.0) found_light = true;
  }
  EXPECT_TRUE(found_heavy);
  EXPECT_TRUE(found_light);
}

TEST(Graph, HexGridNeighborhoodSizes) {
  auto face = mesh::hex_grid_graph(3, 3, 3, 4, mesh::AdjacencyPolicy::FaceOnly);
  auto full = mesh::hex_grid_graph(3, 3, 3, 4, mesh::AdjacencyPolicy::FullDofWeighted);
  // center cell of a 3x3x3 grid: 6 face neighbours vs full 26
  const std::size_t center = (1 * 3 + 1) * 3 + 1;
  EXPECT_EQ(face.neighbors(center).size(), 6u);
  EXPECT_EQ(full.neighbors(center).size(), 26u);
}

TEST(Graph, TubeIsPeriodicCircumferentially) {
  // 8 circumferential x 4 axial x 2 radial; each cell must have a
  // circumferential neighbour both ways even at the seam.
  auto g = mesh::tube_graph(4, 8, 2, 4, mesh::AdjacencyPolicy::FaceOnly);
  EXPECT_EQ(g.size(), 64u);
  // cell i=0 (on the seam), j=1, k=0: neighbours i=1 and i=7 both exist.
  // id = (k*ny + j)*nx + i with nx=8 (circ), ny=4 (axial)
  const std::size_t seam = (0 * 4 + 1) * 8 + 0;
  std::set<std::size_t> nb;
  for (const auto& e : g.neighbors(seam)) nb.insert(e.to);
  EXPECT_TRUE(nb.count((0 * 4 + 1) * 8 + 1));
  EXPECT_TRUE(nb.count((0 * 4 + 1) * 8 + 7));
}

TEST(Graph, DuplicateEdgeAccumulates) {
  mesh::ElementGraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.5);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 3.5);
  EXPECT_DOUBLE_EQ(g.neighbors(1)[0].weight, 3.5);
}

TEST(Graph, RejectsSelfLoopAndOutOfRange) {
  mesh::ElementGraph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
}

// ---------------- partitioner ----------------

class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, BalancedAndCoversAllParts) {
  const int k = GetParam();
  auto g = mesh::quad_grid_graph(24, 24, 6, mesh::AdjacencyPolicy::FullDofWeighted);
  auto p = mesh::partition_graph(g, k);
  ASSERT_EQ(p.part.size(), g.size());
  std::set<int> used(p.part.begin(), p.part.end());
  EXPECT_EQ(used.size(), static_cast<std::size_t>(k));
  for (int v : p.part) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, k);
  }
  auto q = mesh::evaluate_partition(g, p);
  EXPECT_LE(q.imbalance, 1.15) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Parts, PartitionSweep, ::testing::Values(2, 3, 4, 7, 8, 16));

TEST(Partition, EdgeCutBeatsRandomAssignment) {
  auto g = mesh::quad_grid_graph(32, 32, 6, mesh::AdjacencyPolicy::FullDofWeighted);
  auto p = mesh::partition_graph(g, 8);
  auto q = mesh::evaluate_partition(g, p);

  mesh::Partition rnd;
  rnd.nparts = 8;
  rnd.part.resize(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) rnd.part[v] = static_cast<int>(v % 8);
  auto qr = mesh::evaluate_partition(g, rnd);
  EXPECT_LT(q.edge_cut, qr.edge_cut / 4.0);
}

TEST(Partition, SinglePartTrivial) {
  auto g = mesh::quad_grid_graph(4, 4, 2, mesh::AdjacencyPolicy::FaceOnly);
  auto p = mesh::partition_graph(g, 1);
  auto q = mesh::evaluate_partition(g, p);
  EXPECT_DOUBLE_EQ(q.edge_cut, 0.0);
  EXPECT_DOUBLE_EQ(q.total_comm_volume, 0.0);
}

TEST(Partition, FullAdjacencyReducesCommVolume) {
  // The Table 2 phenomenon at partition level: dof-weighted full adjacency
  // partitioning should yield no more shared-dof traffic than partitioning
  // that only sees faces. Evaluate both partitions against the *full* graph
  // (the true communication cost).
  auto g_face = mesh::tube_graph(24, 12, 3, 6, mesh::AdjacencyPolicy::FaceOnly);
  auto g_full = mesh::tube_graph(24, 12, 3, 6, mesh::AdjacencyPolicy::FullDofWeighted);
  auto p_face = mesh::partition_graph(g_face, 8);
  auto p_full = mesh::partition_graph(g_full, 8);
  auto q_face = mesh::evaluate_partition(g_full, p_face);
  auto q_full = mesh::evaluate_partition(g_full, p_full);
  EXPECT_LE(q_full.edge_cut, q_face.edge_cut * 1.05);
}

TEST(Partition, CommVolumesSymmetricPairsSumToEdgeCut) {
  auto g = mesh::quad_grid_graph(16, 16, 4, mesh::AdjacencyPolicy::FullDofWeighted);
  auto p = mesh::partition_graph(g, 4);
  auto q = mesh::evaluate_partition(g, p);
  auto vols = mesh::comm_volumes(g, p);
  double sum = 0.0;
  for (const auto& v : vols) {
    EXPECT_LT(v.a, v.b);
    sum += v.weight;
  }
  EXPECT_NEAR(sum, q.edge_cut, 1e-9);
}

TEST(Partition, RejectsBadPartCount) {
  auto g = mesh::quad_grid_graph(4, 4, 2, mesh::AdjacencyPolicy::FaceOnly);
  EXPECT_THROW(mesh::partition_graph(g, 0), std::invalid_argument);
}

// ---------------- quad mesh ----------------

TEST(QuadMesh, ChannelTagsInletOutlet) {
  auto m = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  EXPECT_EQ(m.num_cells(), 16u);
  int inlets = 0, outlets = 0, walls = 0;
  for (const auto& f : m.boundary_faces()) {
    if (f.tag == mesh::kInlet) ++inlets;
    if (f.tag == mesh::kOutlet) ++outlets;
    if (f.tag == mesh::kWall) ++walls;
  }
  EXPECT_EQ(inlets, 2);
  EXPECT_EQ(outlets, 2);
  EXPECT_EQ(walls, 16);
}

TEST(QuadMesh, NeighborsAcrossSides) {
  auto m = mesh::QuadMesh::channel(4.0, 1.0, 4, 2);
  const std::size_t c = m.cell_index(1, 0);
  EXPECT_EQ(m.neighbor(c, mesh::Side::East), static_cast<long>(m.cell_index(2, 0)));
  EXPECT_EQ(m.neighbor(c, mesh::Side::West), static_cast<long>(m.cell_index(0, 0)));
  EXPECT_EQ(m.neighbor(c, mesh::Side::North), static_cast<long>(m.cell_index(1, 1)));
  EXPECT_EQ(m.neighbor(c, mesh::Side::South), -1);
}

TEST(QuadMesh, CavityMaskRemovesCells) {
  auto m = mesh::QuadMesh::channel_with_cavity(10.0, 1.0, 4.0, 6.0, 1.0, 20, 2);
  // channel: 20x2 cells; cavity: cells with center x in (4,6) -> 4 columns x 2 rows
  EXPECT_EQ(m.num_cells(), 40u + 8u);
  // inactive corner above the inlet
  EXPECT_FALSE(m.is_active(0, 2));
  EXPECT_TRUE(m.is_active(9, 2));
  // inlet/outlet only on the channel part
  for (const auto& f : m.boundary_faces()) {
    if (f.tag == mesh::kInlet) {
      EXPECT_LT(f.mid_y, 1.0);
    }
    if (f.tag == mesh::kOutlet) {
      EXPECT_LT(f.mid_y, 1.0);
    }
  }
}

TEST(QuadMesh, CavityWallsExposedAroundMask) {
  auto m = mesh::QuadMesh::channel_with_cavity(10.0, 1.0, 4.0, 6.0, 1.0, 10, 2);
  // Cavity columns sit at i=4,5 in row j=2 (centers 4.5, 5.5). The cavity
  // cell i=4 must expose a West wall (bordering the inactive i=3,j=2), and
  // i=5 an East wall; both tagged kWall.
  const std::size_t cav_l = m.cell_index(4, 2);
  const std::size_t cav_r = m.cell_index(5, 2);
  EXPECT_EQ(m.neighbor(cav_l, mesh::Side::West), -1);
  EXPECT_EQ(m.neighbor(cav_r, mesh::Side::East), -1);
  bool saw_left_wall = false;
  for (const auto& f : m.boundary_faces()) {
    if (f.cell == cav_l && f.side == mesh::Side::West) {
      saw_left_wall = true;
      EXPECT_EQ(f.tag, mesh::kWall);
      EXPECT_DOUBLE_EQ(f.mid_x, 4.0);
      EXPECT_DOUBLE_EQ(f.mid_y, 1.25);
    }
  }
  EXPECT_TRUE(saw_left_wall);
}

TEST(QuadMesh, LidCavityTagsNorthAsInlet) {
  auto m = mesh::QuadMesh::lid_cavity(4);
  int lid = 0;
  for (const auto& f : m.boundary_faces())
    if (f.tag == mesh::kInlet) {
      ++lid;
      EXPECT_EQ(f.side, mesh::Side::North);
    }
  EXPECT_EQ(lid, 4);
}

TEST(QuadMesh, CellOriginGeometry) {
  auto m = mesh::QuadMesh::channel(4.0, 2.0, 4, 2);
  const auto [ox, oy] = m.cell_origin(m.cell_index(2, 1));
  EXPECT_DOUBLE_EQ(ox, 2.0);
  EXPECT_DOUBLE_EQ(oy, 1.0);
}

TEST(QuadMesh, InactiveCellIndexThrows) {
  auto m = mesh::QuadMesh::channel_with_cavity(10.0, 1.0, 4.0, 6.0, 1.0, 10, 2);
  EXPECT_THROW(m.cell_index(0, 2), std::out_of_range);
}

}  // namespace
