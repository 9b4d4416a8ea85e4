// Incremental front end of the trajectory analysis.
//
// Admission-control-style workloads analyse a long sequence of nearly
// identical flow sets (admit one, re-analyse; release one, re-analyse).
// An AnalysisCache memoizes the converged Smax fixed-point table and
// per-flow busy periods of a run, and reanalyze_with() warm-starts the
// next run's monotone fixed point from it whenever that is sound (the
// cached run's flows are a subset of the new set's; see docs/math.md,
// "Warm-starting the fixed point").  reanalyze_with() is analyze() plus
// the cache: both run the same pipeline (trajectory/analysis.h).
// Parallelism stays inside one run (Config::workers spreads the per-flow
// test-point sweeps; bounds are bit-identical for every worker count);
// trajectory::ShardedAnalyzer (trajectory/shard.h) fans whole shards out.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "model/flow_set.h"
#include "trajectory/analysis.h"
#include "trajectory/stats.h"
#include "trajectory/types.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::trajectory {

/// Memoized state of one analysis run: the Smax table rows and full-path
/// busy periods of every analysed (normalised) flow, keyed by flow name
/// and guarded by parameter fingerprints.  An instance belongs to one
/// logical flow-set lineage; reanalyze_with() refreshes it on every call
/// and silently falls back to a cold start whenever the cached state
/// cannot soundly seed the new run (flow removed or modified, network or
/// config changed).
class AnalysisCache {
 public:
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// Number of cached flow rows (normalised flows of the last run).
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

  /// Cached full-path busy period B^slow of the normalised flow `name`,
  /// or kInfiniteDuration when the flow is not cached.
  [[nodiscard]] Duration busy_period(const std::string& name) const;

  void clear();

 private:
  struct Row {
    std::uint64_t fingerprint = 0;  ///< Flow identity (path, T, C, J, class).
    std::vector<Duration> smax;     ///< Smax per path position.
    Duration busy_period = kInfiniteDuration;
  };

  /// Warm-start seed of a run over the normalised set `fs`: the cached
  /// Smax row of every analysable flow (null for a newly added one), or
  /// an empty vector when the cache cannot soundly seed the run.  Tallies
  /// the validity check into `stats`' cache_hits / cache_misses.
  [[nodiscard]] std::vector<const std::vector<Duration>*> seed_rows(
      const model::FlowSet& fs, const model::Network& net, const Config& cfg,
      EngineStats& stats) const;

  /// Replaces the cached state with `engine`'s run over `fs`.
  void refresh(const model::FlowSet& fs, const model::Network& net,
               const Config& cfg, const Engine& engine);

  std::unordered_map<std::string, Row> rows_;
  std::uint64_t context_ = 0;  ///< Network + Config fingerprint.

  friend Result detail::run(const model::FlowSet& set, const Config& cfg,
                            AnalysisCache* cache, obs::Telemetry* telemetry,
                            std::string_view span_name);
};

/// Analyses `set` exactly like analyze() (same Result, same bounds — the
/// regression tests pin this), but warm-starts the Smax fixed point from
/// `cache` when sound, and refreshes `cache` with the run's converged
/// state either way.  Result::stats reports cache hits/misses, the number
/// of warm-seeded table entries, and the pass count — warm starts show up
/// as strictly fewer smax_passes.
///
/// Sound warm starts: the cached run analysed a subset of `set`'s flows
/// (e.g. before a flow was added) under the same network and Config.  Any
/// other relation (flow removed, parameters changed) cold-starts, because
/// the cached table could overestimate the new least fixed point.
///
/// Precondition: `set` is non-empty and `set.validate()` is clean.
///
/// The observability sink (nullptr = off) receives a "trajectory.reanalyze"
/// span tree like analyze()'s.  The registry ACCUMULATES across calls
/// (counters, timers, convergence series) — the natural use is one
/// long-lived Telemetry per cache lineage — while Result::stats is the
/// run's own accounting, so each call's wall times are reported exactly
/// once (tests/trajectory/stats_semantics_test.cpp pins both halves).
[[nodiscard]] Result reanalyze_with(const model::FlowSet& set,
                                    AnalysisCache& cache, const Config& cfg,
                                    obs::Telemetry* telemetry);

/// reanalyze_with() without an observability sink.
[[nodiscard]] inline Result reanalyze_with(const model::FlowSet& set,
                                           AnalysisCache& cache,
                                           const Config& cfg = {}) {
  return reanalyze_with(set, cache, cfg, nullptr);
}

}  // namespace tfa::trajectory
