// tfa_bench: runs one benchmark workload in this process and prints its
// record as one JSON line on stdout.  benchmark/run.py builds and drives
// it; see benchmark/README.md.
//
//   tfa_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--trace-out FILE]
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "service/protocol.h"

#ifndef TFA_BENCH_BUILD_TYPE
#define TFA_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tfa::bench;
using tfa::service::json_string;

/// Every per-layer metric a traced run reports, with its unit.  A layer
/// the workload never calls reports 0 and is listed under "not_run".
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"model.validate_ms", "ms"},
    {"model.parse_ms", "ms"},
    {"model.normalise_ms", "ms"},
    {"model.assumption1_ms", "ms"},
    {"model.geometry_ms", "ms"},
    {"model.splits", "count"},
    {"model.pair_yield", "ratio"},
    {"trajectory.engine_ms", "ms"},
    {"trajectory.fixed_point_ms", "ms"},
    {"trajectory.extract_ms", "ms"},
    {"trajectory.context_ms", "ms"},
    {"trajectory.smax_passes", "count"},
    {"trajectory.prefix_bounds", "count"},
    {"trajectory.test_points", "count"},
    {"trajectory.busy_period_iterations", "count"},
    {"analyze.unattributed_share", "ratio"},
    {"trajectory.reanalyze_ms", "ms"},
    {"shard.admit_ms", "ms"},
    {"shard.remove_ms", "ms"},
    {"shard.settle_ms", "ms"},
    {"shard.analyzed_share", "ratio"},
    {"shard.merges", "count"},
    {"shard.splits", "count"},
    {"service.parse_request_us", "us"},
    {"service.overhead_ms", "ms"},
    {"service.memo_hit_ratio", "ratio"},
    {"service.response_bytes", "bytes"},
    {"transport.overhead_us", "us"},
    {"transport.accepted", "count"},
    {"transport.shed", "count"},
    {"transport.requests", "count"},
    {"trace.overhead_ratio", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: tfa_bench --workload bulk_random|jitter_fleet|"
               "admission_mix|wire_small --seed N --seconds S --trace 0|1 "
               "[--tiny] [--trace-out FILE]\n");
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string render(const Options& opt, const Report& r) {
  std::string out = "{\"workload\":" + json_string(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"seconds\":" + number(opt.seconds);
  out += std::string(",\"trace\":") + (opt.trace ? "1" : "0");
  out += std::string(",\"scale\":") + (opt.tiny ? "\"tiny\"" : "\"full\"");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"error_rate\":" +
         number(r.attempted == 0 ? 1.0
                                 : static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted));
  out += ",\"digest\":" + json_string(r.digest);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.metrics[i].name) + ":{\"value\":" +
           number(r.metrics[i].value) +
           ",\"unit\":" + json_string(r.metrics[i].unit) + "}";
  }
  out += "},\"checks\":{";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.checks[i].first) + ":" +
           (r.checks[i].second ? "true" : "false");
  }
  out += "},\"check_failures\":[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.check_failures[i]);
  }
  out += "],\"not_run\":[";
  for (std::size_t i = 0; i < r.not_run.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.not_run[i]);
  }
  out += "],\"notes\":{";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.notes[i].first) + ":" + r.notes[i].second;
  }
  out += "},\"build\":{\"type\":" + json_string(TFA_BENCH_BUILD_TYPE) +
         ",\"compiler\":" + json_string(__VERSION__) +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  void (*run)(const Options&, Report&, Tracer*) = nullptr;
  if (opt.workload == "bulk_random") run = run_bulk_random;
  if (opt.workload == "jitter_fleet") run = run_jitter_fleet;
  if (opt.workload == "admission_mix") run = run_admission_mix;
  if (opt.workload == "wire_small") run = run_wire_small;
  if (run == nullptr) return usage();

  Report report;
  Tracer tracer;
  run(opt, report, opt.trace ? &tracer : nullptr);
  if (opt.trace && !opt.trace_out.empty() && !tracer.write_chrome(opt.trace_out))
    report.check("trace_written", false, "cannot write " + opt.trace_out);
  if (opt.trace) {
    report.note("spans", std::to_string(tracer.size()));
    for (const auto& [name, unit] : kPerLayer) {
      const bool present =
          std::any_of(report.metrics.begin(), report.metrics.end(),
                      [&](const Metric& m) { return m.name == name; });
      if (present) continue;
      report.add(name, 0.0, unit);
      report.not_run.emplace_back(name);
    }
  }
  std::printf("%s\n", render(opt, report).c_str());
  return report.failed == 0 ? 0 : 1;
}
