// Tests for the modeled torus machine and its communication/compute cost
// model.

#include <gtest/gtest.h>

#include "model/cost.hpp"
#include "model/torus.hpp"

namespace {

machine::TorusSpec small_spec() {
  machine::TorusSpec s;
  s.nx = 4;
  s.ny = 4;
  s.nz = 4;
  s.cores_per_node = 4;
  return s;
}

TEST(Torus, CoordRoundTrip) {
  machine::Torus t(small_spec());
  for (int n = 0; n < t.spec().total_nodes(); ++n) {
    EXPECT_EQ(t.node_at(t.coords(n)), n);
  }
}

TEST(Torus, RankToNodeBlocked) {
  machine::Torus t(small_spec());
  EXPECT_EQ(t.node_of_rank(0), 0);
  EXPECT_EQ(t.node_of_rank(3), 0);
  EXPECT_EQ(t.node_of_rank(4), 1);
}

TEST(Torus, HopsUsesWraparound) {
  machine::Torus t(small_spec());
  const int a = t.node_at({0, 0, 0});
  const int b = t.node_at({3, 0, 0});
  EXPECT_EQ(t.hops(a, b), 1);  // wrap: 0 -> 3 is one hop backwards
  const int c = t.node_at({2, 2, 2});
  EXPECT_EQ(t.hops(a, c), 6);
}

TEST(Torus, RouteLengthEqualsHops) {
  machine::Torus t(small_spec());
  const int a = t.node_at({0, 1, 2});
  const int b = t.node_at({3, 3, 0});
  auto r = t.route(a, b, {0, 1, 2});
  EXPECT_EQ(static_cast<int>(r.size()), t.hops(a, b));
  // route starts at a
  EXPECT_EQ(r.front().node, a);
}

TEST(Torus, XyzRouteOrdersDimensions) {
  machine::Torus t(small_spec());
  const int a = t.node_at({0, 0, 0});
  const int b = t.node_at({1, 1, 0});
  auto r = t.route(a, b, {0, 1, 2});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].dim, 0);
  EXPECT_EQ(r[1].dim, 1);
}

TEST(Torus, AntipodalOffsetKeepsRawSign) {
  // On an even ring the antipode is equally far both ways; the offset keeps
  // the sign of the raw coordinate difference, so a->b and b->a leave in
  // opposite directions with equal hop counts.
  machine::Torus t(small_spec());
  const int a = t.node_at({0, 0, 0});
  const int b = t.node_at({2, 0, 0});
  EXPECT_EQ(t.hops(a, b), 2);
  EXPECT_EQ(t.hops(b, a), 2);
  const machine::Link ab = t.first_hop(a, b), ba = t.first_hop(b, a);
  EXPECT_EQ(ab.dim, 0);
  EXPECT_EQ(ba.dim, 0);
  EXPECT_EQ(ab.sign, 1);
  EXPECT_EQ(ba.sign, -1);
  EXPECT_EQ(t.route(a, b, {0, 1, 2}).front().sign, ab.sign);
}

TEST(Cost, EmptyPhaseFree) {
  machine::Torus t(small_spec());
  auto c = machine::phase_cost(t, {});
  EXPECT_DOUBLE_EQ(c.total(), 0.0);
}

TEST(Cost, IntraNodeMessagesFree) {
  machine::Torus t(small_spec());
  // ranks 0 and 1 share node 0
  auto c = machine::phase_cost(t, {{0, 1, 1e6}});
  EXPECT_DOUBLE_EQ(c.total(), 0.0);
}

TEST(Cost, LongerRouteCostsMoreLatency) {
  machine::Torus t(small_spec());
  const int near_rank = 1 * t.spec().cores_per_node;      // node 1: 1 hop
  const int far_rank = t.node_at({2, 2, 2}) * t.spec().cores_per_node;
  auto near_c = machine::phase_cost(t, {{0, near_rank, 8.0}});
  auto far_c = machine::phase_cost(t, {{0, far_rank, 8.0}});
  EXPECT_GT(far_c.latency_time, near_c.latency_time);
}

TEST(Cost, ContentionGrowsLinkTime) {
  machine::Torus t(small_spec());
  // many senders all cross the same link 0 -> +x by construction:
  // node (0,0,0) sends to (1,0,0) k times from different ranks on node 0
  std::vector<machine::Message> one = {{0, 4, 1e6}};
  std::vector<machine::Message> four;
  for (int i = 0; i < 4; ++i) four.push_back({i, 4 + i % 4, 1e6});
  auto c1 = machine::phase_cost(t, one);
  auto c4 = machine::phase_cost(t, four);
  EXPECT_NEAR(c4.link_time, 4.0 * c1.link_time, 1e-12);
}

TEST(Cost, AdaptiveRoutingRelievesHotLink) {
  machine::Torus t(small_spec());
  // Two messages whose XYZ routes collide on the +x link out of node 0, but
  // whose minimal routes diverge under other dimension orders.
  const int cpn = t.spec().cores_per_node;
  std::vector<machine::Message> msgs = {
      {0, t.node_at({1, 1, 0}) * cpn, 1e6},
      {1, t.node_at({1, 0, 1}) * cpn, 1e6},
  };
  auto det = machine::phase_cost(t, msgs, machine::Routing::DeterministicXYZ);
  auto ada = machine::phase_cost(t, msgs, machine::Routing::Adaptive);
  EXPECT_LT(ada.link_time, det.link_time);
}

TEST(Cost, MultiDirectionInjectionBeatsNaive) {
  machine::Torus t(small_spec());
  const int cpn = t.spec().cores_per_node;
  // Node 0 sends to all six neighbours simultaneously.
  std::vector<machine::Message> msgs = {
      {0, t.node_at({1, 0, 0}) * cpn, 1e6}, {0, t.node_at({3, 0, 0}) * cpn, 1e6},
      {1, t.node_at({0, 1, 0}) * cpn, 1e6}, {1, t.node_at({0, 3, 0}) * cpn, 1e6},
      {2, t.node_at({0, 0, 1}) * cpn, 1e6}, {2, t.node_at({0, 0, 3}) * cpn, 1e6},
  };
  auto multi = machine::phase_cost(t, msgs, machine::Routing::DeterministicXYZ,
                                   machine::InjectionSchedule::MultiDirection);
  auto naive = machine::phase_cost(t, msgs, machine::Routing::DeterministicXYZ,
                                   machine::InjectionSchedule::Naive);
  EXPECT_NEAR(naive.injection_time, 6.0 * multi.injection_time, 1e-9);
}

TEST(Cost, ComputeTimeScalesWithFlops) {
  machine::ComputeSpec cs;
  EXPECT_DOUBLE_EQ(machine::compute_time(cs, 0.0, 0.0), 0.0);
  const double t1 = machine::compute_time(cs, 1e9, 1e6);
  const double t2 = machine::compute_time(cs, 2e9, 1e6);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-15);
}

TEST(Cost, CacheEffectGivesSuperlinearStrongScaling) {
  // Halving the per-core working set below the cache threshold must more
  // than halve per-core time when the original set spilled out of cache —
  // the Table 5 superlinearity mechanism.
  machine::ComputeSpec cs;
  cs.cache_bytes = 1e6;
  cs.out_of_cache_slowdown = 3.0;
  const double big = machine::compute_time(cs, 1e9, 4e6);    // mostly uncached
  const double half = machine::compute_time(cs, 0.5e9, 2e6); // less uncached
  EXPECT_GT(big / half, 2.0);
}

TEST(Cost, ReplayStepCombinesPhases) {
  machine::Torus t(small_spec());
  machine::ComputeSpec cs;
  machine::StepSchedule s;
  s.flops = {1e9, 2e9};
  s.working_set = {1e5, 1e5};
  s.phases.push_back({{0, 4, 1e6}});
  s.phases.push_back({{4, 0, 1e6}});
  auto r = machine::replay_step(t, cs, s);
  EXPECT_GT(r.compute_time, 0.0);
  EXPECT_GT(r.comm_time, 0.0);
  // compute time is the max over ranks
  EXPECT_NEAR(r.compute_time, machine::compute_time(cs, 2e9, 1e5), 1e-15);
  EXPECT_DOUBLE_EQ(r.total(), r.compute_time + r.comm_time);
}

}  // namespace
