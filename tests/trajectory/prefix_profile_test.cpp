// Tests of the per-hop response profile and bottleneck identification.
#include <algorithm>
#include <gtest/gtest.h>

#include "model/paper_example.h"
#include "trajectory/analysis.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

TEST(PrefixProfile, CoversThePathAndEndsAtTheBound) {
  const FlowSet set = model::paper_example();
  const Result r = analyze(set);
  for (const FlowBound& b : r.bounds) {
    const auto& f = set.flow(b.flow);
    ASSERT_EQ(b.prefix_responses.size(), f.path().size()) << f.name();
    EXPECT_EQ(b.prefix_responses.back(), b.response) << f.name();
    for (std::size_t k = 1; k < b.prefix_responses.size(); ++k)
      EXPECT_LT(b.prefix_responses[k - 1], b.prefix_responses[k])
          << f.name() << " position " << k;
  }
}

TEST(PrefixProfile, BottleneckIsTheContendedNode) {
  // A long quiet path with one heavily contended node in the middle.
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("probe", Path{0, 1, 2, 3, 4, 5}, 100, 2, 0, 1000));
  for (int k = 0; k < 4; ++k)
    set.add(SporadicFlow("hog" + std::to_string(k), Path{3}, 100, 9, 0,
                         1000));
  const Result r = analyze(set);
  const FlowBound* b = r.find(0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->bottleneck_position(), 3u);  // node 3 is position 3
}

TEST(PrefixProfile, UniformPathBottleneckIsTheIngressBurst) {
  // Identical contention everywhere: the first position carries the whole
  // initial burst and dominates the marginals.
  FlowSet set(Network(3, 1, 1));
  set.add(SporadicFlow("a", Path{0, 1, 2}, 100, 4, 0, 1000));
  set.add(SporadicFlow("b", Path{0, 1, 2}, 100, 4, 0, 1000));
  const Result r = analyze(set);
  EXPECT_EQ(r.find(0)->bottleneck_position(), 0u);
}

TEST(PrefixProfile, EmptyForComposedFlows) {
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  const Result r = analyze(set);
  for (const FlowBound& b : r.bounds) {
    if (b.composed) {
      EXPECT_TRUE(b.prefix_responses.empty());
    }
  }
  // At least one flow was composed in this set.
  EXPECT_TRUE(std::any_of(r.bounds.begin(), r.bounds.end(),
                          [](const FlowBound& b) { return b.composed; }));
}

}  // namespace
}  // namespace tfa::trajectory
