#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "base/json.h"
#include "diffserv/strict_priority.h"
#include "model/normalize.h"
#include "model/path_algebra.h"
#include "model/serialize.h"
#include "service/loopback.h"
#include "service/protocol.h"
#include "sim/network_sim.h"
#include "trajectory/analysis.h"
#include "trajectory/engine.h"

namespace tfa::bench {

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(ms_between(s.start_ns, s.end_ns));
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                  ",\"span\":%zu,\"parent\":%d}}",
                  s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op, i,
                  s.parent);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Report::check_count(const std::string& name, std::size_t failures,
                         const std::string& detail) {
  check(name, failures == 0, std::to_string(failures) + " " + detail);
  if (failures > 1) failed += failures - 1;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  const auto same = std::find_if(checks.begin(), checks.end(),
                                 [&](const auto& c) { return c.first == name; });
  if (same == checks.end())
    checks.emplace_back(name, ok);
  else
    same->second = same->second && ok;
  if (!ok) {
    ++failed;
    check_failures.push_back(name + ": " + detail);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0}) {
    // Nearest rank: the value at rank ceil(p/100 * n); everything after
    // it lies beyond the percentile.
    const auto n = static_cast<double>(v.size());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0 || v.size() - rank < 10) continue;
    t.ok = true;
    t.percentile = p;
    t.value = v[rank - 1];
    return t;
  }
  return t;
}

void add_latency(Report& report, const std::string& prefix,
                 const std::vector<double>& ms) {
  report.add(prefix + "_p50_ms", median(ms), "ms");
  const Tail t = tail(ms);
  char buf[128];
  if (t.ok) {
    report.add(prefix + "_tail_ms", t.value, "ms");
    std::snprintf(buf, sizeof buf, "{\"percentile\":%g,\"samples\":%zu}",
                  t.percentile, t.samples);
  } else {
    std::snprintf(buf, sizeof buf,
                  "{\"percentile\":null,\"samples\":%zu,\"omitted\":\"fewer "
                  "than 10 samples beyond p90\"}",
                  t.samples);
  }
  report.note(prefix + "_tail", buf);
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 0x100000001b3ull;
}

void Digest::add(std::int64_t v) { add(std::to_string(v)); }

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

std::uint64_t digest_result(const model::FlowSet& set,
                            const trajectory::Result& r) {
  Digest d;
  for (const trajectory::FlowBound& b : r.bounds) {
    d.add(set.flow(b.flow).name());
    d.add(b.response);
    d.add(b.jitter);
    d.add(b.busy_period);
    d.add(b.delta);
    d.add(b.critical_instant);
    d.add(b.schedulable ? 1 : 0);
  }
  d.add(r.converged ? 1 : 0);
  return d.value();
}

LayerSample traced_analyze(Tracer& t, std::uint64_t op,
                           const model::FlowSet& set,
                           const trajectory::Config& cfg,
                           trajectory::Result* result) {
  LayerSample s;
  const double before = t.time(
      "analyze", op, -1, [&] { *result = trajectory::analyze(set, cfg); });

  const int replay = t.begin("replay", op);
  const auto timed = [&](const char* name, auto&& f) {
    return t.time(name, op, replay, f);
  };
  s.validate = timed("model.validate", [&] { (void)set.validate(); });
  std::optional<model::NormalisationReport> norm;
  s.normalise = timed("model.normalise",
                      [&] { norm = model::normalise(set, cfg.split_jitter); });
  s.splits = static_cast<double>(norm->split_count);
  s.assumption1 = timed("model.assumption1", [&] {
    (void)model::satisfies_assumption1(norm->flow_set);
  });
  {
    std::optional<model::FlowSetGeometry> geometry;
    s.geometry = timed("model.geometry", [&] { geometry.emplace(norm->flow_set); });
    double pairs = 0;
    const std::size_t n = norm->flow_set.size();
    for (std::size_t i = 0; i < n; ++i)
      pairs += static_cast<double>(
          geometry->interferers(static_cast<FlowIndex>(i)).size());
    s.pair_yield = pairs / (static_cast<double>(n) * static_cast<double>(n));
  }
  trajectory::EngineOptions opts;
  opts.stats = &s.stats;
  s.engine = timed("trajectory.engine", [&] {
    const trajectory::Engine engine(norm->flow_set, cfg, opts);
  });
  t.end(replay);
  // The call is timed again after the replay and the two times averaged,
  // so a drift in machine speed over the operation cancels out of the
  // comparison between the call and its layers.
  const double after = t.time("analyze", op, -1, [&] {
    (void)trajectory::analyze(set, cfg);
  });
  s.analyze = (before + after) / 2;
  s.fixed_point = static_cast<double>(s.stats.fixed_point_ns) / 1e6;
  s.extract = static_cast<double>(s.stats.extract_ns) / 1e6;
  return s;
}

void add_layer_metrics(Report& report, const std::vector<LayerSample>& layers) {
  using S = LayerSample;
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const S& s : layers) v.push_back(field(s));
    return median(std::move(v));
  };
  const auto avg = [&](auto field) {
    std::vector<double> v;
    for (const S& s : layers) v.push_back(field(s));
    return mean(v);
  };
  const auto time = [&](const char* name, double S::*field) {
    report.add(name, med([&](const S& s) { return s.*field; }), "ms");
  };
  const auto count = [&](const char* name,
                         std::size_t trajectory::EngineStats::*field) {
    report.add(name, avg([&](const S& s) {
                 return static_cast<double>(s.stats.*field);
               }), "count");
  };
  time("model.validate_ms", &S::validate);
  time("model.normalise_ms", &S::normalise);
  time("model.assumption1_ms", &S::assumption1);
  time("model.geometry_ms", &S::geometry);
  report.add("model.splits", avg([](const S& s) { return s.splits; }), "count");
  report.add("model.pair_yield",
             avg([](const S& s) { return s.pair_yield; }), "ratio");
  time("trajectory.engine_ms", &S::engine);
  time("trajectory.fixed_point_ms", &S::fixed_point);
  time("trajectory.extract_ms", &S::extract);
  report.add("trajectory.context_ms", med([](const S& s) {
               return s.engine - s.geometry - s.assumption1 - s.fixed_point -
                      s.extract;
             }), "ms");
  count("trajectory.smax_passes", &trajectory::EngineStats::smax_passes);
  count("trajectory.prefix_bounds", &trajectory::EngineStats::prefix_bounds);
  count("trajectory.test_points", &trajectory::EngineStats::test_points);
  count("trajectory.busy_period_iterations",
        &trajectory::EngineStats::busy_period_iterations);
  report.add("analyze.unattributed_share",
             med([](const S& s) { return s.unattributed_share(); }), "ratio");
  char buf[128];
  std::snprintf(buf, sizeof buf, "{\"model\":%.4f,\"trajectory\":%.4f}",
                med([](const S& s) { return s.model_ms() / s.analyze; }),
                med([](const S& s) { return s.trajectory_ms() / s.analyze; }));
  report.note("analyze_shares", buf);
}

void add_attribution(Report& report, const model::FlowSet& set,
                     const trajectory::Config& cfg) {
  Tracer t;
  trajectory::Result r;
  const LayerSample s = traced_analyze(t, 0, set, cfg, &r);
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"analyze_ms\":%.3f,\"validate_ms\":%.3f,\"normalise_ms\":%.3f,"
      "\"assumption1_ms\":%.3f,\"geometry_ms\":%.3f,\"engine_ms\":%.3f,"
      "\"fixed_point_ms\":%.3f,\"extract_ms\":%.3f,\"flows\":%zu,"
      "\"splits\":%.0f,\"unattributed_share\":%.4f}",
      s.analyze, s.validate, s.normalise, s.assumption1, s.geometry, s.engine,
      s.fixed_point, s.extract, set.size(), s.splits, s.unattributed_share());
  report.note("attribution", buf);
}

namespace {

/// Wire encoding of a duration: ticks, or null when unbounded.
bool wire_equals(const JsonValue* v, Duration expected) {
  if (v == nullptr) return false;
  if (is_infinite(expected)) return v->kind == JsonValue::Kind::kNull;
  return v->kind == JsonValue::Kind::kNumber &&
         v->number == static_cast<double>(expected);
}

}  // namespace

std::string compare_wire_bounds(std::string_view wire_json,
                                const model::FlowSet& set,
                                const trajectory::Result& expected) {
  JsonError err;
  const auto doc = json_parse(wire_json, &err);
  if (!doc) return "response is not JSON: " + err.message;
  const JsonValue* result = doc->find("result");
  const JsonValue* bounds = result != nullptr ? result->find("bounds") : nullptr;
  if (bounds == nullptr || !bounds->is_array())
    return "response carries no bounds";
  if (bounds->array.size() != expected.bounds.size())
    return "wire has " + std::to_string(bounds->array.size()) +
           " bounds, in-process " + std::to_string(expected.bounds.size());
  for (std::size_t i = 0; i < expected.bounds.size(); ++i) {
    const trajectory::FlowBound& b = expected.bounds[i];
    const JsonValue& w = bounds->array[i];
    const std::string& name = set.flow(b.flow).name();
    const JsonValue* flow = w.find("flow");
    const JsonValue* sched = w.find("schedulable");
    if (flow == nullptr || flow->string != name)
      return "bound " + std::to_string(i) + " names another flow than " + name;
    if (!wire_equals(w.find("response"), b.response) ||
        !wire_equals(w.find("jitter"), b.jitter) ||
        !wire_equals(w.find("busy_period"), b.busy_period) ||
        !wire_equals(w.find("delta"), b.delta) || sched == nullptr ||
        sched->boolean != b.schedulable)
      return "bound of " + name + " differs between wire and in-process";
  }
  return {};
}

std::string sim_check(const model::FlowSet& set, const trajectory::Result& r,
                      bool ef_mode, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.seed = seed;
  cfg.pattern = sim::ArrivalPattern::kAdversarialJitter;
  cfg.link_mode = sim::LinkDelayMode::kAlwaysMax;
  sim::NetworkSim s(set, cfg,
                    ef_mode ? &diffserv::make_strict_priority : &sim::make_fifo);
  s.run();
  for (const trajectory::FlowBound& b : r.bounds) {
    const Duration seen = s.worst(b.flow);
    if (!is_infinite(b.response) && seen > b.response)
      return "flow " + set.flow(b.flow).name() + " observed " +
             std::to_string(seen) + " > bound " + std::to_string(b.response);
  }
  return {};
}

std::string loopback_check(const model::FlowSet& set,
                           const trajectory::Config& cfg,
                           const trajectory::Result& expected) {
  service::Loopback lb;
  const std::string load = lb.request(
      R"({"op":"load_network","session":"check","text":)" +
      service::json_string(model::serialize_flow_set(set)) + "}");
  if (!response_ok(load)) return "load_network failed: " + load.substr(0, 200);
  const std::string response =
      lb.request(std::string(R"({"op":"analyze","session":"check","ef_mode":)") +
                 (cfg.ef_mode ? "true" : "false") + "}");
  if (!response_ok(response))
    return "analyze failed: " + response.substr(0, 200);
  return compare_wire_bounds(response, set, expected);
}

std::string flow_line(const model::SporadicFlow& f) {
  std::string s = "flow " + f.name() + " " +
                  model::to_string(f.service_class()) + " " +
                  std::to_string(f.period()) + " " +
                  std::to_string(f.jitter()) + " " +
                  std::to_string(f.deadline()) + " path";
  for (const NodeId n : f.path().nodes()) s += " " + std::to_string(n);
  s += " costs";
  for (const Duration c : f.costs()) s += " " + std::to_string(c);
  return s;
}

bool response_ok(std::string_view response) {
  // Envelopes open with {"seq":N[,"id":...],"ok":...: the flag sits in
  // the first few dozen bytes.
  return response.substr(0, 64).find("\"ok\":true") != std::string_view::npos;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace tfa::bench
