// Deterministic metric registry — the single sink every subsystem's
// counters now feed (docs/observability.md).
//
// Five metric kinds, split by determinism contract:
//
//   * counter    — monotone work tally (passes, test points).  Merging
//                  adds.  DETERMINISTIC: bit-identical for any
//                  Config::workers, because every producer accumulates
//                  per-flow/per-shard partials and merges them in index
//                  order, never in scheduling order.
//   * timer      — accumulated wall time in nanoseconds.  Merging adds.
//                  Host-dependent by nature; kept apart from counters so
//                  determinism checks can compare everything else.
//   * gauge      — a level or setting (worker count, sim horizon, peak
//                  queue depth).  Merging takes the maximum.
//   * histogram  — fixed, explicit bucket upper bounds plus an overflow
//                  bucket; counts and sum.  Merging adds bucket-wise
//                  (bounds must match).  Deterministic like counters.
//   * series     — an append-only list of values (per-pass fixed-point
//                  residuals, per-flow busy-period iterates).  Merging
//                  concatenates.  Deterministic when appended from
//                  sequential code, which is the only supported use.
//
// The registry itself is NOT thread-safe: one registry per thread of
// control, merged in a deterministic order — the same discipline the
// engine already uses for EngineStats partials.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tfa::obs {

/// One fixed-bucket histogram: `counts[k]` tallies samples `<= bounds[k]`
/// (first matching bucket), `overflow` everything larger.
struct Histogram {
  std::vector<std::int64_t> bounds;  ///< Ascending upper bounds.
  std::vector<std::int64_t> counts;  ///< One per bound.
  std::int64_t overflow = 0;
  std::int64_t count = 0;  ///< Total samples.
  std::int64_t sum = 0;    ///< Sum of sample values.

  void record(std::int64_t value);

  /// Adds `other` bucket-wise — the one histogram merge rule.  The
  /// bounds must be equal (checked).
  void merge(const Histogram& other);
};

/// The registry.  Metrics are created on first access and live for the
/// registry's lifetime; names are free-form but the convention is
/// dot-separated `subsystem.metric` (see docs/observability.md).
class MetricRegistry {
 public:
  /// Monotone counter; returns a reference the caller may add to.  Like
  /// every accessor below, a lookup of an existing name allocates nothing.
  [[nodiscard]] std::int64_t& counter(std::string_view name);

  /// Accumulated wall time, nanoseconds.
  [[nodiscard]] std::int64_t& timer(std::string_view name);

  /// Level/setting gauge.
  [[nodiscard]] std::int64_t& gauge(std::string_view name);

  /// Histogram with the given bucket bounds.  The bounds of an existing
  /// histogram must match (checked).
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     const std::vector<std::int64_t>& bounds);

  /// Appends `value` to the named series, honouring the series cap.
  void append_series(std::string_view name, std::int64_t value);

  /// Caps every series at `cap` elements and the number of distinct
  /// series names at `cap`; appends beyond either cap are dropped and
  /// tallied in the `obs.series_dropped` counter.  0 (the default) means
  /// unlimited.  Long-lived registries (e.g. an admission controller's or
  /// a service session's) set a cap so telemetry cannot grow without
  /// bound, however many distinct flows their runs see.
  void set_series_capacity(std::size_t cap) noexcept { series_cap_ = cap; }

  /// Read-only views, ordered by name (deterministic iteration).
  [[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
  timers() const noexcept {
    return timers_;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
  gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }
  [[nodiscard]] const std::map<std::string, std::vector<std::int64_t>,
                               std::less<>>&
  series() const noexcept {
    return series_;
  }

  /// Value of a counter/timer/gauge, or 0 when it does not exist (lookup
  /// without creating — the registry views stay const).
  [[nodiscard]] std::int64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::int64_t timer_value(std::string_view name) const;
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const;

  /// Folds `other` into this registry: counters/timers add, gauges take
  /// the maximum, histograms add bucket-wise, series concatenate.  Call
  /// in a fixed order (flow-index, shard-index) to keep totals
  /// deterministic.
  void merge(const MetricRegistry& other);

  /// merge(), but with every metric name of `other` prepended with
  /// `prefix` — folds a subordinate registry (one shard's analysis run,
  /// one worker's partial) into this one under its own namespace without
  /// disturbing the same-named top-level metrics.  Merge rules per kind
  /// are identical to merge(); call in a fixed order (shard-id, worker
  /// index) to keep totals deterministic.
  void merge_with_prefix(const MetricRegistry& other, std::string_view prefix);

  /// Compact JSON dump:
  ///   {"counters":{...},"timers":{...},"gauges":{...},
  ///    "histograms":{name:{"bounds":[...],"counts":[...],
  ///                        "overflow":n,"count":n,"sum":n}},
  ///    "series":{name:[...]}}
  /// Key order is lexicographic, so two registries with equal content
  /// dump byte-identical JSON.
  [[nodiscard]] std::string to_json() const;

  /// to_json() restricted to the deterministic kinds (counters,
  /// histograms, series) — what the worker-count determinism tests
  /// compare byte-for-byte.
  [[nodiscard]] std::string deterministic_json() const;

 private:
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> timers_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, std::vector<std::int64_t>, std::less<>> series_;
  std::size_t series_cap_ = 0;
};

}  // namespace tfa::obs
