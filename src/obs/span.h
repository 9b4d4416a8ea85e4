// Scoped span tracer with explicit clock injection.
//
// A Tracer records a flat list of completed spans (name, start, duration,
// nesting depth) in *begin* order; Span is the RAII handle that closes a
// span when it leaves scope; a capped tracer keeps the newest spans.  The
// clock is injected at construction — production uses
// std::chrono::steady_clock, tests inject a counter so timestamps (and
// therefore the whole trace file) are bit-reproducible.
//
// chrome_trace_json() renders the spans as Chrome trace-event JSON
// ("X" complete events), loadable in chrome://tracing and Perfetto
// (ui.perfetto.dev — see docs/observability.md).
//
// Like MetricRegistry, a Tracer is single-threaded by contract: spans are
// opened from one thread of control (the analysis phases), never from
// inside parallel_for workers.  The recorded *tree shape* — the sequence
// of (name, depth) pairs — is therefore deterministic for any
// Config::workers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <string_view>

namespace tfa::obs {

class Tracer;

/// RAII handle of one open span.  Move-only; closes on destruction (or
/// explicitly via end()).  A default-constructed / moved-from Span is a
/// no-op, which lets call sites trace optionally:
///   obs::Span s = obs::span(telemetry, "trajectory.fixed_point");
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  ~Span();

  /// Closes the span now (idempotent).
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}

  Tracer* tracer_ = nullptr;
  std::size_t index_ = 0;  ///< Begin-order number, counting evicted spans.
};

/// The span recorder.
class Tracer {
 public:
  /// Clock returning nanoseconds from an arbitrary epoch.
  using Clock = std::function<std::int64_t()>;

  /// Uses std::chrono::steady_clock.
  Tracer();

  /// Injects an explicit clock (tests, replay).
  explicit Tracer(Clock clock);

  // Events view storage the tracer owns, so a copy would view the
  // original's; moves keep that storage in place.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;

  /// Opens a span; it closes when the returned handle dies.  At the
  /// capacity the oldest recorded span is evicted to make room; a handle
  /// whose span was evicted still closes (a no-op on the records).
  [[nodiscard]] Span span(std::string_view name);

  /// Caps the number of recorded spans at `cap`, as a ring that keeps the
  /// newest; 0 (the default) means unlimited.  Long-lived tracers (a
  /// service session's) set a cap so the trace cannot grow without bound.
  void set_capacity(std::size_t cap) noexcept { cap_ = cap; }

  /// True when the capacity is set and reached: the next span evicts one.
  [[nodiscard]] bool full() const noexcept {
    return cap_ != 0 && events_.size() >= cap_;
  }

  /// Sets the trace context: spans opened from now until
  /// clear_context() record `trace_id`, so one wire request's whole
  /// phase tree (service op -> settle -> Smax passes) is
  /// reconstructable from the trace file.  The service sets this around
  /// each request's execution; engines never touch it.
  void set_context(std::string_view trace_id) {
    context_ = trace_id;
    context_view_ = {};
  }
  void clear_context() noexcept {
    context_.clear();
    context_view_ = {};
  }
  [[nodiscard]] const std::string& context() const noexcept {
    return context_;
  }

  /// One completed (or still open, dur < 0) span.  `name` and `trace`
  /// view strings the tracer keeps, valid while the event is recorded: a
  /// long-lived session tracer then pays no allocation per span.
  struct Event {
    std::string_view name;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = -1;  ///< -1 while open.
    std::size_t depth = 0;     ///< Nesting level at begin time.
    std::string_view trace;    ///< Trace context at begin time ("" if none).
  };

  /// The recorded spans, in begin order.  A deque, so that recording and
  /// eviction never copy the spans already recorded.
  [[nodiscard]] const std::deque<Event>& events() const noexcept {
    return events_;
  }

  /// Chrome trace-event JSON:
  ///   {"displayTimeUnit":"ms","traceEvents":[
  ///     {"name":...,"cat":"tfa","ph":"X","ts":<us>,"dur":<us>,
  ///      "pid":0,"tid":0},...]}
  /// Open spans are skipped.  Timestamps are microseconds relative to the
  /// first recorded span, so traces load near t=0.
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  friend class Span;
  void close(std::size_t index);
  void evict_oldest();

  /// One interned trace context and the begin-order number of the last
  /// span that views it, so it is evicted with that span.
  struct Interned {
    std::string id;
    std::size_t last_use = 0;
  };

  Clock clock_;
  std::deque<Event> events_;
  std::size_t base_ = 0;  ///< Begin-order number of events_.front().
  std::size_t cap_ = 0;
  std::size_t open_depth_ = 0;
  std::string context_;
  // The storage events view: each distinct span name once, and the trace
  // context once per context window in which a span opened
  // (context_view_ is that copy, empty until the window's first span).
  std::set<std::string, std::less<>> names_;
  std::deque<Interned> traces_;
  std::string_view context_view_;
};

}  // namespace tfa::obs
