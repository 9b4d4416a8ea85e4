// The bundle a run threads through the analysis layers: one metric
// registry plus one span tracer.  Everything that accepts telemetry takes
// a `Telemetry*` and treats nullptr as "observability off" (zero-cost
// paths stay zero-cost); the helpers below make optional tracing terse at
// the call sites.
#pragma once

#include <cstddef>
#include <string_view>

#include "obs/metrics.h"
#include "obs/span.h"

namespace tfa::obs {

/// One run's observability state.  Like its parts, single-threaded by
/// contract; parallel producers accumulate partials and merge them in a
/// deterministic order (see docs/observability.md).
struct Telemetry {
  MetricRegistry metrics;
  Tracer trace;

  /// Bounds a long-lived sink: at most `cap` series names, `cap` values
  /// per series and `cap` spans (MetricRegistry::set_series_capacity,
  /// Tracer::set_capacity).  Spans evicted at the cap are tallied in the
  /// `obs.spans_dropped` counter by span().
  void set_capacity(std::size_t cap) noexcept {
    metrics.set_series_capacity(cap);
    trace.set_capacity(cap);
  }
};

/// The capacity long-lived sinks (service, session, admission controller)
/// pass to Telemetry::set_capacity.
inline constexpr std::size_t kLongLivedCapacity = 4096;

/// Opens a span on `t`'s tracer, or a no-op handle when `t` is null.  A
/// full tracer evicts its oldest span (counted in `obs.spans_dropped`).
[[nodiscard]] Span span(Telemetry* t, std::string_view name);

}  // namespace tfa::obs
