// Shared pieces of the benchmark driver: options, the in-memory span
// recorder, order statistics, result digests and the correctness checks
// every workload runs outside its timed region.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/flow_set.h"
#include "trajectory/types.h"

namespace tfa::bench {

/// Command-line options of one run (one workload in one process).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke scale: every input shrunk so a run takes about a second.  Used
  /// by run.py's self-test only; never by a measured run.
  bool tiny = false;
  /// Chrome trace-event file written at the end of a traced run.
  std::string trace_out;
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// Spans kept in memory during a traced run and written out once at the
/// end.  A span names the layer call it timed, its start and end, the
/// span that caused it (-1 for an operation's root) and the operation it
/// belongs to.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  int begin(const char* name, std::uint64_t op, int parent = -1) {
    spans_.push_back({name, now_ns(), 0, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Closes span `id` and returns its duration in milliseconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    return ms_between(s.start_ns, s.end_ns);
  }

  /// Runs `f` inside a span; returns the span's duration in milliseconds.
  template <typename F>
  double time(const char* name, std::uint64_t op, int parent, F&& f) {
    const int id = begin(name, op, parent);
    f();
    return end(id);
  }

  /// Durations of every span called `name`, in milliseconds.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes the spans as Chrome trace events (one complete event per
  /// span; `args` carries the operation id and the parent span index).
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports; main.cpp renders it as one JSON line.
struct Report {
  std::vector<Metric> metrics;
  /// Check name -> passed (a name checked several times passes only if
  /// every instance did).
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> check_failures;           ///< details
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string digest;
  std::vector<std::string> not_run;  ///< Layers this workload never calls.
  std::vector<std::pair<std::string, std::string>> notes;  ///< raw JSON

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a check; a failed one counts as one failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = {});
  /// Records a check over many operations, `failures` of which failed.
  void check_count(const std::string& name, std::size_t failures,
                   const std::string& detail);
  void note(std::string key, std::string json_value) {
    notes.emplace_back(std::move(key), std::move(json_value));
  }
};

// ---- order statistics --------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// The highest of p99.9 / p99 / p95 / p90 that has at least ten samples
/// beyond it (nearest rank).  `ok` is false when even p90 has fewer.
struct Tail {
  bool ok = false;
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Adds the latency summary of one operation class: `<prefix>_p50_ms`,
/// and `<prefix>_tail_ms` when the sample is large enough (the
/// percentile and count go into the notes).
void add_latency(Report& report, const std::string& prefix,
                 const std::vector<double>& ms);

/// The set-up, timed several times over a run: once before the timed
/// phase, then again between operations whenever a second has passed
/// since the last repetition.  setup_s is the median of every
/// repetition, so, like the latency medians, it samples the machine's
/// speed over the whole run instead of over one short window.  The time
/// spent in repetitions is kept apart so the timed phase can leave it out
/// of its wall time.
class SetupSampler {
 public:
  /// Times one repetition now.
  template <typename F>
  void run(F&& setup) {
    const std::int64_t t0 = now_ns();
    setup();
    const std::int64_t t1 = now_ns();
    samples_.push_back(static_cast<double>(t1 - t0) / 1e9);
    spent_ns_ += t1 - t0;
    next_ns_ = t1 + kInterval_ns;
  }
  /// Times one repetition if the interval has passed since the last.
  template <typename F>
  void maybe(F&& setup) {
    if (now_ns() >= next_ns_) run(setup);
  }

  [[nodiscard]] double median_s() const { return median(samples_); }
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  /// Nanoseconds spent in repetitions so far.
  [[nodiscard]] std::int64_t spent_ns() const noexcept { return spent_ns_; }

 private:
  static constexpr std::int64_t kInterval_ns = 1'000'000'000;
  std::int64_t next_ns_ = 0;
  std::int64_t spent_ns_ = 0;
  std::vector<double> samples_;
};

// ---- layer replay ------------------------------------------------------

/// Per-operation layer figures of one traced analyze (milliseconds,
/// except the counts).
struct LayerSample {
  double analyze = 0, validate = 0, normalise = 0, assumption1 = 0,
         geometry = 0, engine = 0, fixed_point = 0, extract = 0;
  double splits = 0, pair_yield = 0;
  trajectory::EngineStats stats;

  /// The model layer's calls: validate, normalise, Assumption-1 check and
  /// geometry (the engine repeats the last two inside its construction).
  [[nodiscard]] double model_ms() const {
    return validate + normalise + assumption1 + geometry;
  }
  /// The engine without the model work it repeats.
  [[nodiscard]] double trajectory_ms() const {
    return engine - assumption1 - geometry;
  }
  /// Share of the analyze call no timed layer call covers.
  [[nodiscard]] double unattributed_share() const {
    return (analyze - validate - normalise - engine) / analyze;
  }
};

/// One analyze operation under the tracer: the real trajectory::analyze
/// call (span "analyze", result in `*result`), then the same work replayed
/// as separate calls into each layer's public functions (span "replay"
/// with children model.validate, model.normalise, model.assumption1,
/// model.geometry, trajectory.engine), so each layer's share is timed from
/// outside the library, then the call once more (a second "analyze"
/// span).  `analyze` is the mean of the two calls.
LayerSample traced_analyze(Tracer& t, std::uint64_t op,
                           const model::FlowSet& set,
                           const trajectory::Config& cfg,
                           trajectory::Result* result);

/// Adds the model.*, trajectory.* and analyze.unattributed_share metrics
/// of a series of traced analyses (times are medians per operation,
/// counts and ratios are means per operation), and the note
/// "analyze_shares": the median shares of analyze spent in the model
/// layer and in the trajectory engine.
void add_layer_metrics(Report& report, const std::vector<LayerSample>& layers);

/// One traced analyze of `set`, outside the timed region, recorded as the
/// note "attribution": the analyze time, each replayed layer's time and
/// the share of analyze that no layer call covers.  Untraced runs carry
/// it so every record has its workload's attribution.
void add_attribution(Report& report, const model::FlowSet& set,
                     const trajectory::Config& cfg);

// ---- digests and checks ------------------------------------------------

/// 64-bit FNV-1a over the canonical rendering of result fields.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::int64_t v);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of every analysed flow's bound fields (name, response, jitter,
/// busy period, delta, critical instant, verdict).
[[nodiscard]] std::uint64_t digest_result(const model::FlowSet& set,
                                          const trajectory::Result& r);

/// Empty when `wire_json` (an analyze response line) carries exactly the
/// bounds of `expected`; otherwise the first difference.
[[nodiscard]] std::string compare_wire_bounds(std::string_view wire_json,
                                              const model::FlowSet& set,
                                              const trajectory::Result& expected);

/// Short simulation of `set` (FIFO everywhere; strict priority for EF
/// over the other classes when `ef_mode`).  Empty when no flow's observed
/// delay exceeds its bound in `r`; otherwise the first violation.
[[nodiscard]] std::string sim_check(const model::FlowSet& set,
                                    const trajectory::Result& r, bool ef_mode,
                                    std::uint64_t seed);

/// Loopback round trip of `set`: load it into a fresh in-process service
/// session, analyze, and compare the wire bounds with `expected`.
[[nodiscard]] std::string loopback_check(const model::FlowSet& set,
                                         const trajectory::Config& cfg,
                                         const trajectory::Result& expected);

/// A flow as one line of the text format (docs/format.md).
[[nodiscard]] std::string flow_line(const model::SporadicFlow& f);

/// True when a response envelope reports success.
[[nodiscard]] bool response_ok(std::string_view response);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// ---- workloads ---------------------------------------------------------

void run_bulk_random(const Options& opt, Report& report, Tracer* tracer);
void run_jitter_fleet(const Options& opt, Report& report, Tracer* tracer);
void run_admission_mix(const Options& opt, Report& report, Tracer* tracer);
void run_wire_small(const Options& opt, Report& report, Tracer* tracer);

}  // namespace tfa::bench
