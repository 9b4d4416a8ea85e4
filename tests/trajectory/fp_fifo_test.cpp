// Tests of the FP/FIFO extension: per-class bounds under a strict-priority
// router, validated against the StrictPriorityDiscipline simulation.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "diffserv/strict_priority.h"
#include "model/generators.h"
#include "model/paper_example.h"
#include "sim/worst_case_search.h"
#include "trajectory/analysis.h"
#include "trajectory/fp_fifo.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::ServiceClass;
using model::SporadicFlow;

TEST(FpFifo, SingleClassDegeneratesToProperty2) {
  const FlowSet set = model::paper_example();  // all EF
  const FpFifoResult fp = analyze_fp_fifo(set);
  const Result p2 = analyze(set);
  ASSERT_EQ(fp.classes.size(), 1u);
  EXPECT_EQ(fp.classes[0].service_class, ServiceClass::kExpedited);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    EXPECT_EQ(fp.find(fi)->response, p2.find(fi)->response);
  }

  // A one-class set that needs Assumption-1 splits: split flows go
  // through the same composition as analyze().
  FlowSet split(Network(8, 1, 1));
  split.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  split.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  split.add(SporadicFlow("k", Path{6, 4, 5}, 120, 3, 2, 400));
  const FpFifoResult fp_split = analyze_fp_fifo(split);
  const Result p2_split = analyze(split);
  ASSERT_GT(p2_split.split_count, 0u);
  ASSERT_EQ(fp_split.classes.size(), 1u);
  bool any_composed = false;
  for (std::size_t i = 0; i < split.size(); ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const FlowBound* a = fp_split.find(fi);
    const FlowBound* b = p2_split.find(fi);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->response, b->response) << "flow " << i;
    EXPECT_EQ(a->jitter, b->jitter) << "flow " << i;
    EXPECT_EQ(a->busy_period, b->busy_period) << "flow " << i;
    EXPECT_EQ(a->delta, b->delta) << "flow " << i;
    EXPECT_EQ(a->composed, b->composed) << "flow " << i;
    any_composed = any_composed || a->composed;
  }
  EXPECT_TRUE(any_composed);
}

TEST(FpFifo, TopClassMatchesProperty3) {
  FlowSet set(Network(3, 1, 1));
  set.add(SporadicFlow("ef", Path{0, 1, 2}, 50, 4, 0, 500));
  set.add(SporadicFlow("bulk", Path{0, 1, 2}, 100, 12, 0, 5000,
                       ServiceClass::kBestEffort));
  const FpFifoResult fp = analyze_fp_fifo(set);
  Config ef_cfg;
  ef_cfg.ef_mode = true;
  const Result p3 = analyze(set, ef_cfg);
  EXPECT_EQ(fp.find(0)->response, p3.find(0)->response);
  EXPECT_EQ(fp.find(0)->delta, p3.find(0)->delta);
}

TEST(FpFifo, EveryClassGetsABound) {
  FlowSet set(Network(4, 1, 1));
  set.add(SporadicFlow("ef", Path{0, 1, 2}, 60, 3, 0, 500));
  set.add(SporadicFlow("af1", Path{0, 1, 2}, 80, 5, 0, 800,
                       ServiceClass::kAssured1));
  set.add(SporadicFlow("af3", Path{3, 1, 2}, 100, 6, 0, 1200,
                       ServiceClass::kAssured3));
  set.add(SporadicFlow("be", Path{0, 1, 2, 3}, 150, 8, 0, 2000,
                       ServiceClass::kBestEffort));
  const FpFifoResult fp = analyze_fp_fifo(set);
  ASSERT_EQ(fp.classes.size(), 4u);
  for (FlowIndex i = 0; i < 4; ++i) {
    ASSERT_NE(fp.find(i), nullptr);
    EXPECT_FALSE(is_infinite(fp.find(i)->response)) << "flow " << i;
  }
  EXPECT_TRUE(fp.all_schedulable);
}

TEST(FpFifo, LowerPriorityNeverBeatsHigherOnSharedPath) {
  // Identical flows in different classes over the same path: the bound
  // must be ordered by priority.
  FlowSet set(Network(3, 1, 1));
  set.add(SporadicFlow("ef", Path{0, 1, 2}, 60, 4, 0, 9000));
  set.add(SporadicFlow("af2", Path{0, 1, 2}, 60, 4, 0, 9000,
                       ServiceClass::kAssured2));
  set.add(SporadicFlow("be", Path{0, 1, 2}, 60, 4, 0, 9000,
                       ServiceClass::kBestEffort));
  const FpFifoResult fp = analyze_fp_fifo(set);
  const Duration ef = fp.find(0)->response;
  const Duration af2 = fp.find(1)->response;
  const Duration be = fp.find(2)->response;
  EXPECT_LE(ef, af2);
  EXPECT_LE(af2, be);
}

TEST(FpFifo, HigherPriorityLoadInflatesLowerBounds) {
  auto be_bound = [](Duration ef_cost) {
    FlowSet set(Network(2, 1, 1));
    set.add(SporadicFlow("ef", Path{0, 1}, 40, ef_cost, 0, 9000));
    set.add(SporadicFlow("be", Path{0, 1}, 80, 4, 0, 9000,
                         ServiceClass::kBestEffort));
    return analyze_fp_fifo(set).find(1)->response;
  };
  Duration prev = be_bound(2);
  for (const Duration c : {4, 8, 12}) {
    const Duration next = be_bound(c);
    EXPECT_GE(next, prev);
    prev = next;
  }
}

TEST(FpFifo, DivergesWhenHigherClassesSaturateANode) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("ef", Path{0}, 10, 9, 0, 9000));  // 90% utilisation
  set.add(SporadicFlow("be", Path{0}, 10, 2, 0, 9000,
                       ServiceClass::kBestEffort));      // total 110%
  const FpFifoResult fp = analyze_fp_fifo(set);
  EXPECT_FALSE(is_infinite(fp.find(0)->response));
  EXPECT_TRUE(is_infinite(fp.find(1)->response));
}

void expect_fp_sound(const FlowSet& set, std::uint64_t seed) {
  const FpFifoResult fp = analyze_fp_fifo(set);
  sim::SearchConfig scfg;
  scfg.random_runs = 12;
  scfg.base_seed = seed;
  scfg.discipline = diffserv::make_strict_priority;
  const sim::SearchOutcome obs = sim::find_worst_case(set, scfg);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const FlowBound* b = fp.find(fi);
    ASSERT_NE(b, nullptr);
    if (is_infinite(b->response)) continue;  // nothing claimed
    EXPECT_LE(obs.stats[i].worst, b->response)
        << "FP/FIFO unsound for " << set.flow(fi).name();
  }
}

TEST(FpFifo, SoundAgainstStrictPrioritySimulationMixedSet) {
  FlowSet set(Network(5, 1, 2));
  set.add(SporadicFlow("ef1", Path{0, 1, 2}, 60, 3, 2, 500));
  set.add(SporadicFlow("ef2", Path{3, 1, 2}, 80, 3, 0, 500));
  set.add(SporadicFlow("af1", Path{0, 1, 2, 4}, 90, 6, 0, 900,
                       ServiceClass::kAssured1));
  set.add(SporadicFlow("af3", Path{3, 1, 4}, 120, 8, 0, 1500,
                       ServiceClass::kAssured3));
  set.add(SporadicFlow("be", Path{0, 1, 4}, 200, 10, 0, 3000,
                       ServiceClass::kBestEffort));
  expect_fp_sound(set, 7);
}

/// Property sweep: random mixed-class sets stay sound under the
/// strict-priority simulation.
class RandomFpFifo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFpFifo, SoundAgainstStrictPrioritySimulation) {
  Rng rng(GetParam());
  model::RandomConfig rc;
  rc.nodes = 8;
  rc.flows = 6;
  rc.max_path = 4;
  rc.max_jitter = 5;
  rc.max_utilisation = 0.45;
  const FlowSet base = model::make_random(rc, rng);

  FlowSet set(base.network());
  const ServiceClass classes[] = {
      ServiceClass::kExpedited, ServiceClass::kAssured1,
      ServiceClass::kAssured3, ServiceClass::kBestEffort};
  for (std::size_t i = 0; i < base.size(); ++i)
    set.add(base.flow(static_cast<FlowIndex>(i))
                .with_class(classes[rng.uniform(0, 3)]));

  expect_fp_sound(set, GetParam() * 13 + 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFpFifo,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48, 49,
                                           50, 51, 52));

}  // namespace
}  // namespace tfa::trajectory
