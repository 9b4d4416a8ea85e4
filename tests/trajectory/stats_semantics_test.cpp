// Regression tests of the EngineStats accounting semantics (satellite of
// the observability layer): a registry shared across reanalyze_with()
// calls accumulates, Result::stats stays the one call's own accounting,
// and wall times are counted exactly once.  An earlier version re-merged
// the accumulator on the second call and double-counted fixed_point_ns /
// extract_ns; these tests pin the fixed semantics.
#include <gtest/gtest.h>

#include <cstdint>

#include "base/rng.h"
#include "model/generators.h"
#include "obs/telemetry.h"
#include "trajectory/batch.h"
#include "trajectory/stats.h"

namespace tfa::trajectory {
namespace {

model::FlowSet base_set() {
  Rng rng(7);
  model::RandomConfig cfg;
  cfg.nodes = 48;
  cfg.flows = 24;
  cfg.min_path = 2;
  cfg.max_path = 4;
  cfg.max_jitter = 8;
  cfg.max_utilisation = 0.5;
  return model::make_random(cfg, rng);
}

model::FlowSet grown_set(const model::FlowSet& base) {
  model::FlowSet grown = base;
  grown.add(model::SporadicFlow("newcomer", model::Path{0, 1, 2}, 500, 2, 0,
                                100000));
  return grown;
}

TEST(StatsSemantics, SharedRegistryAccumulatesWhileResultStatsStayPerCall) {
  const model::FlowSet base = base_set();
  const model::FlowSet grown = grown_set(base);
  Config cfg;
  cfg.workers = 1;

  obs::Telemetry tel;
  AnalysisCache cache;
  const Result r1 = reanalyze_with(base, cache, cfg, &tel);
  const Result r2 = reanalyze_with(grown, cache, cfg, &tel);

  // First call sees an empty cache, second one warm-starts from it.
  EXPECT_EQ(r1.stats.cache_hits, 0u);
  EXPECT_GT(r2.stats.cache_hits, 0u);
  EXPECT_GT(r2.stats.warm_seeded_entries, 0u);

  // The shared registry holds the exact sum of the two per-call stats —
  // counters and, crucially, wall times (the double-count regression).
  const obs::MetricRegistry& m = tel.metrics;
  const auto sum = [](std::size_t a, std::size_t b) {
    return static_cast<std::int64_t>(a + b);
  };
  EXPECT_EQ(m.counter_value("trajectory.smax_passes"),
            sum(r1.stats.smax_passes, r2.stats.smax_passes));
  EXPECT_EQ(m.counter_value("trajectory.prefix_bounds"),
            sum(r1.stats.prefix_bounds, r2.stats.prefix_bounds));
  EXPECT_EQ(m.counter_value("trajectory.test_points"),
            sum(r1.stats.test_points, r2.stats.test_points));
  EXPECT_EQ(m.counter_value("trajectory.busy_period_iterations"),
            sum(r1.stats.busy_period_iterations,
                r2.stats.busy_period_iterations));
  EXPECT_EQ(m.counter_value("trajectory.cache_hits"),
            sum(r1.stats.cache_hits, r2.stats.cache_hits));
  EXPECT_EQ(m.counter_value("trajectory.cache_misses"),
            sum(r1.stats.cache_misses, r2.stats.cache_misses));
  EXPECT_EQ(m.counter_value("trajectory.warm_seeded_entries"),
            sum(r1.stats.warm_seeded_entries, r2.stats.warm_seeded_entries));
  const std::int64_t fixed_point_ns = m.timer_value("trajectory.fixed_point_ns");
  EXPECT_EQ(fixed_point_ns, r1.stats.fixed_point_ns + r2.stats.fixed_point_ns);
  EXPECT_EQ(m.timer_value("trajectory.extract_ns"),
            r1.stats.extract_ns + r2.stats.extract_ns);

  // Both calls did real work, so the second call's share is a strict part
  // of the accumulated total — not the total itself (the old bug).
  EXPECT_GT(r1.stats.fixed_point_ns, 0);
  EXPECT_GT(r2.stats.fixed_point_ns, 0);
  EXPECT_LT(r2.stats.fixed_point_ns, fixed_point_ns);
  EXPECT_LT(static_cast<std::int64_t>(r2.stats.smax_passes),
            m.counter_value("trajectory.smax_passes"));
}

TEST(StatsSemantics, SharedRegistryDeltasMatchPrivateRegistryRuns) {
  const model::FlowSet base = base_set();
  const model::FlowSet grown = grown_set(base);
  Config cfg;
  cfg.workers = 1;

  // Sequence A: one registry across both calls.
  obs::Telemetry shared;
  AnalysisCache cache_a;
  (void)reanalyze_with(base, cache_a, cfg, &shared);
  const Result shared_second = reanalyze_with(grown, cache_a, cfg, &shared);

  // Sequence B: a fresh registry per call — per-call stats by
  // construction.
  AnalysisCache cache_b;
  obs::Telemetry fresh1, fresh2;
  (void)reanalyze_with(base, cache_b, cfg, &fresh1);
  const Result fresh_second = reanalyze_with(grown, cache_b, cfg, &fresh2);

  // The deterministic counters of the second call must agree exactly:
  // a shared registry changes where totals accumulate, never what one
  // call reports.
  EXPECT_EQ(shared_second.stats.smax_passes, fresh_second.stats.smax_passes);
  EXPECT_EQ(shared_second.stats.prefix_bounds,
            fresh_second.stats.prefix_bounds);
  EXPECT_EQ(shared_second.stats.test_points, fresh_second.stats.test_points);
  EXPECT_EQ(shared_second.stats.busy_period_iterations,
            fresh_second.stats.busy_period_iterations);
  EXPECT_EQ(shared_second.stats.cache_hits, fresh_second.stats.cache_hits);
  EXPECT_EQ(shared_second.stats.cache_misses,
            fresh_second.stats.cache_misses);
  EXPECT_EQ(shared_second.stats.warm_seeded_entries,
            fresh_second.stats.warm_seeded_entries);
}

TEST(StatsSemantics, MergeAddsAndDeltaSinceInverts) {
  EngineStats a;
  a.smax_passes = 3;
  a.test_points = 10;
  a.fixed_point_ns = 100;
  a.extract_ns = 40;
  a.workers = 2;
  EngineStats b;
  b.smax_passes = 2;
  b.test_points = 5;
  b.fixed_point_ns = 60;
  b.extract_ns = 10;
  b.workers = 4;

  EngineStats sum = a;
  sum.merge(b);
  EXPECT_EQ(sum.smax_passes, 5u);
  EXPECT_EQ(sum.test_points, 15u);
  EXPECT_EQ(sum.fixed_point_ns, 160);  // times ADD: disjoint work only
  EXPECT_EQ(sum.extract_ns, 50);
  EXPECT_EQ(sum.workers, 4u);  // workers take the max

  const EngineStats back = sum.delta_since(a);
  EXPECT_EQ(back.smax_passes, b.smax_passes);
  EXPECT_EQ(back.test_points, b.test_points);
  EXPECT_EQ(back.fixed_point_ns, b.fixed_point_ns);
  EXPECT_EQ(back.extract_ns, b.extract_ns);
  EXPECT_EQ(back.workers, sum.workers);  // delta keeps the current setting
}

TEST(StatsSemantics, PublishWritesCanonicalNames) {
  EngineStats s;
  s.smax_passes = 4;
  s.prefix_bounds = 7;
  s.test_points = 19;
  s.busy_period_iterations = 3;
  s.warm_seeded_entries = 2;
  s.cache_hits = 5;
  s.cache_misses = 1;
  s.fixed_point_ns = 12345;
  s.extract_ns = 678;
  s.workers = 8;

  obs::MetricRegistry reg;
  publish_stats(s, reg);
  EXPECT_EQ(reg.counter_value("trajectory.smax_passes"), 4);
  EXPECT_EQ(reg.counter_value("trajectory.prefix_bounds"), 7);
  EXPECT_EQ(reg.counter_value("trajectory.test_points"), 19);
  EXPECT_EQ(reg.counter_value("trajectory.busy_period_iterations"), 3);
  EXPECT_EQ(reg.counter_value("trajectory.warm_seeded_entries"), 2);
  EXPECT_EQ(reg.counter_value("trajectory.cache_hits"), 5);
  EXPECT_EQ(reg.counter_value("trajectory.cache_misses"), 1);
  EXPECT_EQ(reg.timer_value("trajectory.fixed_point_ns"), 12345);
  EXPECT_EQ(reg.timer_value("trajectory.extract_ns"), 678);
  EXPECT_EQ(reg.gauge_value("trajectory.workers"), 8);
  // Exactly the canonical names: nine work metrics and one gauge.
  EXPECT_EQ(reg.counters().size(), 7u);
  EXPECT_EQ(reg.timers().size(), 2u);
  EXPECT_EQ(reg.gauges().size(), 1u);

  // A second publish adds counters and times; the gauge keeps the max.
  EngineStats small;
  small.smax_passes = 1;
  small.fixed_point_ns = 5;
  small.workers = 2;
  publish_stats(small, reg);
  EXPECT_EQ(reg.counter_value("trajectory.smax_passes"), 5);
  EXPECT_EQ(reg.timer_value("trajectory.fixed_point_ns"), 12350);
  EXPECT_EQ(reg.gauge_value("trajectory.workers"), 8);
}

}  // namespace
}  // namespace tfa::trajectory
