// Tests of the Assumption-1 normaliser (re-entering flows are split into
// new flows, per the paper's Section-2.2 recipe).
#include <gtest/gtest.h>

#include "model/normalize.h"
#include "model/paper_example.h"

namespace tfa::model {
namespace {

TEST(Assumption1, PaperExampleAlreadyCompliant) {
  EXPECT_TRUE(satisfies_assumption1(paper_example()));
  const auto report = normalise(paper_example());
  EXPECT_EQ(report.split_count, 0u);
  EXPECT_EQ(report.flow_set.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.origin[i], static_cast<FlowIndex>(i));
    EXPECT_EQ(report.segments[i],
              std::vector<FlowIndex>{static_cast<FlowIndex>(i)});
  }
}

/// tau_j leaves P_i after node 2 and comes back at node 4 — the textbook
/// Assumption-1 violation.
FlowSet reentering_set() {
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  return set;
}

TEST(Assumption1, DetectsReEntry) {
  EXPECT_FALSE(satisfies_assumption1(reentering_set()));
}

TEST(Assumption1, SplitsBothSidesOfAMutualViolation) {
  // Assumption 1 is a condition on *ordered pairs*: here tau_j re-enters
  // P_i at node 4, and symmetrically tau_i re-enters P_j at node 4 (it
  // crosses nodes 2 and 4 of P_j with node 3 in between).  The canonical
  // normaliser cuts every violating flow against the same snapshot, so
  // both flows split — order-independently.
  const auto report = normalise(reentering_set());
  EXPECT_EQ(report.split_count, 2u);
  EXPECT_EQ(report.flow_set.size(), 4u);
  EXPECT_TRUE(satisfies_assumption1(report.flow_set));

  // Heads keep the names and the routes up to the re-entries.
  EXPECT_EQ(report.flow_set.flow(0).name(), "i");
  EXPECT_EQ(report.flow_set.flow(0).path(), (Path{1, 2, 3}));
  EXPECT_EQ(report.flow_set.flow(1).name(), "j");
  EXPECT_EQ(report.flow_set.flow(1).path(), (Path{0, 2, 6}));
  // Tails are new flows from the re-entry points on, appended in order.
  const SporadicFlow& i_tail = report.flow_set.flow(2);
  EXPECT_EQ(i_tail.name(), "i'");
  EXPECT_EQ(i_tail.path(), (Path{4, 5}));
  const SporadicFlow& j_tail = report.flow_set.flow(3);
  EXPECT_EQ(j_tail.name(), "j'");
  EXPECT_EQ(j_tail.path(), (Path{4, 7}));
  EXPECT_EQ(j_tail.period(), report.flow_set.flow(1).period());

  EXPECT_EQ(report.segments[0], (std::vector<FlowIndex>{0, 2}));
  EXPECT_EQ(report.segments[1], (std::vector<FlowIndex>{1, 3}));
  EXPECT_EQ(report.origin[2], 0);
  EXPECT_EQ(report.origin[3], 1);
}

TEST(Assumption1, OneSidedViolationSplitsOnlyTheCrosser) {
  // tau_j weaves across P_i, but tau_i's visits to P_j stay contiguous:
  // only tau_j must split.
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{2, 6, 3, 7}, 100, 4, 0, 400));
  // i visits nodes 2 and 3 of P_j consecutively (one run, forward);
  // j visits 2, leaves to 6, re-enters P_i at 3.
  const auto report = normalise(set);
  EXPECT_EQ(report.split_count, 1u);
  EXPECT_EQ(report.flow_set.size(), 3u);
  EXPECT_EQ(report.flow_set.flow(0).path(), (Path{1, 2, 3}));  // untouched
  EXPECT_EQ(report.flow_set.flow(1).path(), (Path{2, 6}));
  EXPECT_EQ(report.flow_set.flow(2).path(), (Path{3, 7}));
}

TEST(Assumption1, OneSharedNodeNeverViolatesInEitherOrder) {
  // The normaliser visits only pairs sharing two or more nodes: with one
  // shared node there is neither a second run nor a direction to
  // reverse.  A crossing at one node is compliant whichever flow comes
  // first, while a re-entry over two shared nodes is still caught (tau_i
  // meets P_reenter in one run, so only the re-entering flow splits).
  const SporadicFlow i("i", Path{0, 1, 3, 2}, 100, 4, 0, 400);
  const SporadicFlow cross("cross", Path{4, 2, 5}, 100, 4, 0, 400);
  const SporadicFlow reenter("reenter", Path{1, 6, 3, 7}, 100, 4, 0, 400);
  for (const bool swapped : {false, true}) {
    SCOPED_TRACE(swapped ? "swapped" : "in order");
    FlowSet one(Network(8, 1, 1));
    one.add(swapped ? cross : i);
    one.add(swapped ? i : cross);
    EXPECT_TRUE(satisfies_assumption1(one));
    EXPECT_EQ(normalise(one).split_count, 0u);

    FlowSet two(Network(8, 1, 1));
    two.add(swapped ? reenter : i);
    two.add(swapped ? i : reenter);
    EXPECT_FALSE(satisfies_assumption1(two));
    const auto report = normalise(two);
    EXPECT_EQ(report.split_count, 1u);
    EXPECT_TRUE(satisfies_assumption1(report.flow_set));
    const std::size_t r = swapped ? 0 : 1;
    EXPECT_EQ(report.flow_set.flow(static_cast<FlowIndex>(r)).path(),
              (Path{1, 6}));
    EXPECT_EQ(report.flow_set.flow(2).path(), (Path{3, 7}));
  }
}

/// A zig-zag: tau_j stays on P_i but reverses direction half-way.
TEST(Assumption1, DetectsZigZagInsideSharedSegment) {
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("i", Path{0, 1, 2, 3}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{1, 2, 1 + 4}, 100, 4, 0, 400));  // 1,2,5: fine
  EXPECT_TRUE(satisfies_assumption1(set));

  FlowSet zig(Network(6, 1, 1));
  zig.add(SporadicFlow("i", Path{0, 1, 2, 3}, 100, 4, 0, 400));
  zig.add(SporadicFlow("j", Path{1, 2, 5, 4}, 100, 4, 0, 400));
  EXPECT_TRUE(satisfies_assumption1(zig));  // leaves and never returns

  FlowSet bad(Network(6, 1, 1));
  bad.add(SporadicFlow("i", Path{0, 1, 2, 3}, 100, 4, 0, 400));
  bad.add(SporadicFlow("j", Path{0, 2, 1, 5}, 100, 4, 0, 400));  // 0 then 2 then 1
  EXPECT_FALSE(satisfies_assumption1(bad));
  const auto report = normalise(bad);
  EXPECT_GE(report.split_count, 1u);
  EXPECT_TRUE(satisfies_assumption1(report.flow_set));
}

TEST(Assumption1, CascadedSplitsTerminate) {
  // One flow weaving through two other paths repeatedly.
  FlowSet set(Network(12, 1, 1));
  set.add(SporadicFlow("a", Path{0, 1, 2, 3, 4}, 100, 4, 0, 900));
  set.add(SporadicFlow("b", Path{5, 6, 7, 8, 9}, 100, 4, 0, 900));
  set.add(SporadicFlow("w", Path{0, 5, 1, 6, 2, 7}, 100, 4, 0, 900));
  const auto report = normalise(set);
  EXPECT_TRUE(satisfies_assumption1(report.flow_set));
  EXPECT_GE(report.split_count, 2u);
  // All of w's packets are accounted for: the segments partition its path.
  std::size_t total_nodes = 0;
  for (const FlowIndex s : report.segments[2])
    total_nodes += report.flow_set.flow(s).path().size();
  EXPECT_EQ(total_nodes, 6u);
}

TEST(Assumption1, CrudeJitterPolicyInflatesTails) {
  const auto keep = normalise(reentering_set(),
                              SplitJitterPolicy::kKeepOriginal);
  const auto inflate = normalise(reentering_set(),
                                 SplitJitterPolicy::kInflateCrude);
  const Duration kept = keep.flow_set.flow(2).jitter();
  const Duration inflated = inflate.flow_set.flow(2).jitter();
  EXPECT_EQ(kept, 0);
  EXPECT_GT(inflated, kept);
}

}  // namespace
}  // namespace tfa::model
