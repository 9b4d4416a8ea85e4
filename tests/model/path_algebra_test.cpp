// Tests of the pairwise route geometry — this is Figure 1 of the paper
// turned into assertions, plus the cumulative Smin / M_i^h quantities.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "model/paper_example.h"
#include "model/path_algebra.h"

namespace tfa::model {
namespace {

/// Two flows sharing segment {2,3} in the same direction (Figure 1 top).
FlowSet same_direction_set() {
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("i", Path{0, 2, 3, 4}, 50, 4, 0, 100));
  set.add(SporadicFlow("j", Path{1, 2, 3, 5}, 50, 4, 0, 100));
  return set;
}

/// Two flows crossing segment {2,3} in reverse directions (Figure 1 bottom).
FlowSet reverse_direction_set() {
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("i", Path{0, 2, 3, 4}, 50, 4, 0, 100));
  set.add(SporadicFlow("j", Path{5, 3, 2, 1}, 50, 4, 0, 100));
  return set;
}

TEST(PairGeometry, SameDirectionFigure1) {
  const FlowSet set = same_direction_set();
  const FlowSetGeometry geo(set);
  const PairGeometry& g = geo.pair(0, 1);
  ASSERT_TRUE(g.intersects);
  EXPECT_EQ(g.first_ji, 2);  // tau_j enters P_i at node 2
  EXPECT_EQ(g.last_ji, 3);
  EXPECT_EQ(g.first_ij, 2);  // tau_i enters P_j at node 2 as well
  EXPECT_EQ(g.last_ij, 3);
  EXPECT_TRUE(g.same_direction);
}

TEST(PairGeometry, ReverseDirectionFigure1) {
  const FlowSet set = reverse_direction_set();
  const FlowSetGeometry geo(set);
  const PairGeometry& g = geo.pair(0, 1);
  ASSERT_TRUE(g.intersects);
  EXPECT_EQ(g.first_ji, 3);  // tau_j (running 5,3,2,1) enters P_i at 3
  EXPECT_EQ(g.last_ji, 2);
  EXPECT_EQ(g.first_ij, 2);  // tau_i (running 0,2,3,4) enters P_j at 2
  EXPECT_EQ(g.last_ij, 3);
  EXPECT_FALSE(g.same_direction);
}

TEST(PairGeometry, SingleSharedNodeCountsAsSameDirection) {
  FlowSet set(Network(5, 1, 1));
  set.add(SporadicFlow("i", Path{0, 2, 4}, 50, 4, 0, 100));
  set.add(SporadicFlow("j", Path{3, 2, 1}, 50, 4, 0, 100));
  const FlowSetGeometry geo(set);
  const PairGeometry& g = geo.pair(0, 1);
  ASSERT_TRUE(g.intersects);
  EXPECT_EQ(g.first_ji, 2);
  EXPECT_EQ(g.first_ij, 2);
  EXPECT_TRUE(g.same_direction);  // direction is immaterial at one node
}

TEST(PairGeometry, DisjointPathsDoNotIntersect) {
  // The geometry stores only coupled pairs; a disjoint pair reads the
  // default PairGeometry, which is exactly what an all-pairs table holds.
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("i", Path{0, 1, 2}, 50, 4, 0, 100));
  set.add(SporadicFlow("j", Path{3, 4}, 50, 4, 0, 100));
  set.add(SporadicFlow("k", Path{2, 5}, 50, 4, 0, 100));
  const FlowSetGeometry geo(set);
  for (const auto& [i, j] : {std::pair{0, 1}, std::pair{1, 0},
                             std::pair{1, 2}, std::pair{2, 1}}) {
    SCOPED_TRACE(std::to_string(i) + " vs " + std::to_string(j));
    const PairGeometry& g = geo.pair(i, j);
    EXPECT_FALSE(g.intersects);
    EXPECT_EQ(g.first_ji, kNoNode);
    EXPECT_EQ(g.last_ji, kNoNode);
    EXPECT_EQ(g.first_ij, kNoNode);
    EXPECT_EQ(g.last_ij, kNoNode);
    EXPECT_FALSE(g.same_direction);
    EXPECT_EQ(g.slow_ji, kNoNode);
    EXPECT_EQ(g.c_slow_ji, 0);  // the paper's 0 convention
    EXPECT_FALSE(geo.pair(i, j, 1).intersects);
  }
  EXPECT_TRUE(geo.interferers(1).empty());
  EXPECT_TRUE(geo.pair(0, 2).intersects);  // a coupled pair is stored
}

TEST(PathAlgebra, FlowsAtIsAscendingAndEmptyForUnvisitedNodes) {
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("a", Path{3, 2, 1}, 50, 4, 0, 100));
  set.add(SporadicFlow("b", Path{0, 2}, 50, 4, 0, 100));
  set.add(SporadicFlow("c", Path{2, 3, 5}, 50, 4, 0, 100));
  set.add(SporadicFlow("d", Path{5, 6}, 50, 4, 0, 100));
  const FlowSetGeometry geo(set);
  EXPECT_EQ(geo.flows_at(2), (std::vector<FlowIndex>{0, 1, 2}));
  EXPECT_EQ(geo.flows_at(3), (std::vector<FlowIndex>{0, 2}));
  EXPECT_EQ(geo.flows_at(5), (std::vector<FlowIndex>{2, 3}));
  EXPECT_EQ(geo.flows_at(0), (std::vector<FlowIndex>{1}));
  EXPECT_TRUE(geo.flows_at(4).empty());
  EXPECT_TRUE(geo.flows_at(7).empty());
  EXPECT_EQ(flows_by_node(set)[2], geo.flows_at(2));
}

TEST(PairGeometry, SelfPairIsTheWholePath) {
  const FlowSet set = same_direction_set();
  const FlowSetGeometry geo(set);
  const PairGeometry& g = geo.pair(0, 0);
  EXPECT_TRUE(g.intersects);
  EXPECT_EQ(g.first_ji, 0);
  EXPECT_EQ(g.last_ji, 4);
  EXPECT_TRUE(g.same_direction);
  EXPECT_EQ(g.c_slow_ji, 4);
}

TEST(PairGeometry, SlowJiPicksLargestCostOnSharedSegment) {
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("i", Path{0, 2, 3, 4}, 50, 4, 0, 100));
  set.add(SporadicFlow("j", Path{1, 2, 3, 5}, 50, {2, 3, 9, 2}, 0, 100));
  const FlowSetGeometry geo(set);
  const PairGeometry& g = geo.pair(0, 1);
  EXPECT_EQ(g.slow_ji, 3);    // C_j is 9 at node 3
  EXPECT_EQ(g.c_slow_ji, 9);
}

TEST(PairGeometry, PrefixTruncationRemovesLaterIntersections) {
  const FlowSet set = same_direction_set();
  const FlowSetGeometry geo(set);
  // Truncated to its first node {0}, P_i no longer meets P_j.
  EXPECT_FALSE(geo.pair(0, 1, 1).intersects);
  // Truncated to {0, 2}: intersection is the single node 2.
  const PairGeometry g = geo.pair(0, 1, 2);
  ASSERT_TRUE(g.intersects);
  EXPECT_EQ(g.first_ji, 2);
  EXPECT_EQ(g.last_ji, 2);
  EXPECT_TRUE(g.same_direction);
}

TEST(PathAlgebra, SminAccumulatesCostAndLmin) {
  const FlowSet set = paper_example();  // Lmin = 1, C = 4 everywhere
  const FlowSetGeometry geo(set);
  EXPECT_EQ(geo.smin(0, 0), 0);
  EXPECT_EQ(geo.smin(0, 1), 5);
  EXPECT_EQ(geo.smin(0, 3), 15);
  EXPECT_EQ(geo.smin(2, 5), 25);  // tau3, 5 hops upstream of node 11
}

TEST(PathAlgebra, MTermOnPaperExample) {
  const FlowSet set = paper_example();
  const FlowSetGeometry geo(set);
  // M_1^3 (position 1 of P_1): only tau1 visits node 1 => min C = 4, +Lmin.
  EXPECT_EQ(geo.m_term(0, 1, 4), 5);
  // M_5^7 (position 3 of P_5): nodes 2,3,4 all have min cost 4 (+1 each).
  EXPECT_EQ(geo.m_term(4, 3, 5), 15);
}

TEST(PathAlgebra, MaxJoinerCostExcludesReverseFlows) {
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("i", Path{0, 2, 3, 4}, 50, 4, 0, 100));
  set.add(SporadicFlow("rev", Path{5, 3, 2, 1}, 50, {2, 9, 9, 2}, 0, 100));
  const FlowSetGeometry geo(set);
  // At node 2 (position 1 of P_i) only tau_i itself is a same-direction
  // joiner; the reverse flow's cost 9 must not be picked up.
  EXPECT_EQ(geo.max_joiner_cost(0, 1, 4), 4);
}

TEST(PathAlgebra, MaskRestrictsQuantifiers) {
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("i", Path{0, 2, 3}, 50, 4, 0, 100));
  set.add(SporadicFlow("big", Path{1, 2, 3}, 50, {2, 9, 9}, 0, 100));
  const FlowSetGeometry geo(set);
  EXPECT_EQ(geo.max_joiner_cost(0, 1, 3), 9);
  const std::vector<bool> only_i{true, false};
  EXPECT_EQ(geo.max_joiner_cost(0, 1, 3, &only_i), 4);
  // The min inside M reacts symmetrically.
  EXPECT_EQ(geo.m_term(0, 2, 3), 4 + 1 + 4 + 1);   // min(4,9)=4 at both hops
  EXPECT_EQ(geo.m_term(0, 2, 3, &only_i), 10);
}

TEST(PathAlgebra, InterferersOnPaperExample) {
  const FlowSet set = paper_example();
  const FlowSetGeometry geo(set);
  EXPECT_EQ(geo.interferers(0), (std::vector<FlowIndex>{2, 3, 4}));
  EXPECT_EQ(geo.interferers(1), (std::vector<FlowIndex>{2, 3, 4}));
  EXPECT_EQ(geo.interferers(2), (std::vector<FlowIndex>{0, 1, 3, 4}));
}

}  // namespace
}  // namespace tfa::model
