// Workloads bulk_random and jitter_fleet: whole-set trajectory::analyze
// calls, one operation per call.
//
// bulk_random is one large random network, where the quadratic model
// layer (normalise, Assumption-1 check, pair geometry) does most of the
// work.  jitter_fleet is a stream of small networks with release jitter
// tens of periods wide, where the engine does almost all of it.  A
// model-layer change should move the first and leave the second alone.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "base/rng.h"
#include "bench.h"
#include "model/generators.h"
#include "model/serialize.h"
#include "trajectory/analysis.h"

namespace tfa::bench {
namespace {

struct Input {
  model::FlowSet set;
  trajectory::Config cfg;
};

/// ~2000 flows on 48 nodes, paths of 2-4 nodes (~3981 flows after the
/// Assumption-1 splits at seed 1).
model::FlowSet bulk_network(std::uint64_t seed, bool tiny) {
  Rng rng = Rng::stream(seed, 0);
  model::RandomConfig rc;
  rc.flows = tiny ? 150 : 2000;
  rc.nodes = tiny ? 12 : 48;
  rc.max_path = 4;
  return model::make_random(rc, rng);
}

/// One fleet member, in the shape of bench_soa's cluster_set: 100 EF
/// flows over two-node paths on 4 nodes, release jitter 20-30 periods
/// wide.  Sources, destinations and periods cycle by flow index from a
/// seeded phase, so every node carries the same load in every member and
/// the members differ in jitter and pairing, not in how busy they are;
/// the seed moves the bounds but not the cost.  EF-mode members add
/// twelve non-EF background flows.
model::FlowSet fleet_network(Rng& rng, bool ef_mode, bool tiny) {
  constexpr std::int32_t kNodes = 4;
  model::FlowSet set(model::Network(kNodes, 1, 1));
  const std::int64_t flows = tiny ? 24 : 100;
  const std::int64_t pair_phase = rng.uniform(0, 2);
  const std::int64_t period_phase = rng.uniform(0, 7);
  for (std::int64_t i = 0; i < flows; ++i) {
    const auto a = static_cast<NodeId>(i % kNodes);
    const auto b = static_cast<NodeId>(
        (a + 1 + (i / kNodes + pair_phase) % (kNodes - 1)) % kNodes);
    const Duration period = 64 + 8 * ((i + period_phase) % 8);
    const Duration jitter = rng.uniform(20, 30) * period + rng.uniform(0, 63);
    set.add(model::SporadicFlow("f" + std::to_string(i), model::Path{a, b},
                                period, 1, jitter, 100'000));
  }
  if (ef_mode) {
    for (std::int64_t i = 0; i < 12; ++i) {
      const auto a = static_cast<NodeId>(i % kNodes);
      const auto b = static_cast<NodeId>((a + rng.uniform(1, kNodes - 1)) %
                                         kNodes);
      set.add(model::SporadicFlow(
          "bg" + std::to_string(i), model::Path{a, b}, rng.uniform(200, 400),
          rng.uniform(2, 4), 0, 100'000,
          i % 2 == 0 ? model::ServiceClass::kAssured1
                     : model::ServiceClass::kBestEffort));
    }
  }
  return set;
}

/// Every fourth fleet member runs in EF mode (Property 3).
std::vector<Input> make_fleet(std::uint64_t seed, bool tiny) {
  const std::size_t size = tiny ? 8 : 64;
  std::vector<Input> fleet;
  for (std::size_t k = 0; k < size; ++k) {
    Rng rng = Rng::stream(seed, k);
    Input in{fleet_network(rng, k % 4 == 3, tiny), {}};
    in.cfg.ef_mode = k % 4 == 3;
    fleet.push_back(std::move(in));
  }
  return fleet;
}

/// The program receives its inputs as text: serialise what the generator
/// made and parse it back, as a client loading a file would.
std::vector<Input> load(const std::vector<Input>& generated, Tracer* tracer,
                        std::string* error) {
  std::vector<Input> out;
  for (std::size_t k = 0; k < generated.size(); ++k) {
    const std::string text = model::serialize_flow_set(generated[k].set);
    const int span =
        tracer != nullptr ? tracer->begin("model.parse", k) : -1;
    model::ParseResult parsed = model::parse_flow_set(text);
    if (tracer != nullptr) tracer->end(span);
    if (!parsed.ok()) {
      *error = parsed.located_error();
      return {};
    }
    if (const auto issues = parsed.flow_set->validate(); !issues.empty()) {
      *error = issues.front().message;
      return {};
    }
    out.push_back({std::move(*parsed.flow_set), generated[k].cfg});
  }
  return out;
}

/// Timed operations of one phase.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<LayerSample> layers;
  double wall_s = 0;
};

/// Runs the set-up, the timed phases and the checks of one analysis
/// workload; returns the loaded inputs.
template <typename Generate>
std::vector<Input> run_analysis_workload(
    const Options& opt, Report& report, Tracer* tracer, Generate generate,
    const std::vector<std::size_t>& check_sample) {
  // ---- set-up: generate, serialise, parse.  It is repeated between
  // operations over the run; the first repetition's inputs are kept.
  std::vector<Input> inputs;
  std::string error;
  SetupSampler setup;
  setup.run([&] { inputs = load(generate(), tracer, &error); });
  if (!error.empty() || inputs.empty()) {
    report.check("inputs_valid", false, error);
    return {};
  }
  const auto reload = [&] { (void)load(generate(), nullptr, &error); };

  // ---- timed operations: cycle over the inputs, one analyze each.
  std::vector<std::uint64_t> digests(inputs.size(), 0);
  std::vector<bool> seen(inputs.size(), false);
  bool repeat_ok = true;
  std::size_t k = 0;
  const auto run_phase = [&](double seconds, Tracer* t) {
    Phase p;
    const std::int64_t spent_before = setup.spent_ns();
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    // The first phase covers every input once so the digest is complete.
    const std::size_t min_ops = k == 0 ? inputs.size() : 1;
    for (std::size_t ops = 0; ops < min_ops || now_ns() < deadline; ++ops, ++k) {
      const std::size_t idx = k % inputs.size();
      const Input& in = inputs[idx];
      trajectory::Result r;
      if (t != nullptr) {
        p.layers.push_back(traced_analyze(*t, k, in.set, in.cfg, &r));
        p.latency_ms.push_back(p.layers.back().analyze);
      } else {
        const std::int64_t t0 = now_ns();
        r = trajectory::analyze(in.set, in.cfg);
        p.latency_ms.push_back(ms_between(t0, now_ns()));
      }
      ++report.attempted;
      const std::uint64_t d = digest_result(in.set, r);
      if (!seen[idx]) {
        seen[idx] = true;
        digests[idx] = d;
      } else if (digests[idx] != d) {
        repeat_ok = false;
      }
      setup.maybe(reload);
    }
    p.wall_s = static_cast<double>(now_ns() - start - setup.spent_ns() +
                                   spent_before) /
               1e9;
    return p;
  };

  if (tracer == nullptr) {
    const Phase p = run_phase(opt.seconds, nullptr);
    add_latency(report, "latency", p.latency_ms);
    report.add("throughput_ops_s",
               static_cast<double>(p.latency_ms.size()) / p.wall_s, "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    add_attribution(report, inputs.front().set, inputs.front().cfg);
  } else {
    // A third of the run untraced, the rest traced: the ratio of the two
    // medians is the tracing overhead.
    const Phase plain = run_phase(opt.seconds / 3, nullptr);
    const Phase traced = run_phase(opt.seconds * 2 / 3, tracer);
    add_layer_metrics(report, traced.layers);
    report.add("model.parse_ms", median(tracer->durations_ms("model.parse")), "ms");
    report.add("trace.overhead_ratio",
               median(traced.latency_ms) / median(plain.latency_ms), "ratio");
  }

  report.add("setup_s", setup.median_s(), "s");
  report.note("setup_repetitions", std::to_string(setup.count()));

  // ---- correctness, outside the timed region.
  report.check("inputs_valid", error.empty(), error);
  report.check("repeat_determinism", repeat_ok,
               "an input's bounds changed between repeated analyses");
  Digest all;
  for (const std::uint64_t d : digests) all.add(static_cast<std::int64_t>(d));
  report.digest = all.hex();
  for (const std::size_t idx : check_sample) {
    const Input& in = inputs[idx % inputs.size()];
    const trajectory::Result r = trajectory::analyze(in.set, in.cfg);
    const std::string tag = "[input " + std::to_string(idx % inputs.size()) + "]";
    const std::string wire = loopback_check(in.set, in.cfg, r);
    report.check("loopback_equals_in_process", wire.empty(), tag + " " + wire);
    const std::string sim = sim_check(in.set, r, in.cfg.ef_mode, opt.seed);
    report.check("sim_within_bounds", sim.empty(), tag + " " + sim);
  }
  return inputs;
}

}  // namespace

void run_bulk_random(const Options& opt, Report& report, Tracer* tracer) {
  const std::vector<Input> inputs = run_analysis_workload(
      opt, report, tracer,
      [&] { return std::vector<Input>{{bulk_network(opt.seed, opt.tiny), {}}}; },
      {});
  if (inputs.empty()) return;
  // The cross-path and simulation checks run on a 300-flow sample of the
  // network: a subset of a valid set is valid, and the checks' cost stays
  // small next to the timed region.
  const model::FlowSet& whole = inputs.front().set;
  model::FlowSet sample(whole.network());
  const std::size_t take = std::min<std::size_t>(whole.size(), 300);
  for (std::size_t i = 0; i < take; ++i)
    sample.add(whole.flow(
        static_cast<FlowIndex>((opt.seed + i) % whole.size())));
  const trajectory::Result r = trajectory::analyze(sample, {});
  const std::string wire = loopback_check(sample, {}, r);
  report.check("loopback_equals_in_process", wire.empty(), "[sample] " + wire);
  const std::string sim = sim_check(sample, r, false, opt.seed);
  report.check("sim_within_bounds", sim.empty(), "[sample] " + sim);
}

void run_jitter_fleet(const Options& opt, Report& report, Tracer* tracer) {
  // Two sampled members: one chosen by the seed, and the EF-mode member
  // after it.
  const std::size_t pick = static_cast<std::size_t>(opt.seed % 4) * 4;
  (void)run_analysis_workload(
      opt, report, tracer, [&] { return make_fleet(opt.seed, opt.tiny); },
      {pick, pick + 3});
}

}  // namespace tfa::bench
