// Workload admission_mix: one in-process service session (Loopback) of
// about 2000 flows in 50 disjoint clusters, driven by one closed-loop
// client with no think time.  Most requests are writes: `admit` (commit a
// candidate flow) and `remove_flow` (tear an earlier one down, keeping
// the session size steady).  A few admits cross two clusters and merge
// their shards; two in five carry an unmeetable deadline and are rejected,
// which exercises the rollback.  Two in five requests read `metrics`,
// and every 400th runs a whole-session `analyze`.
//
// The workload uses the model and trajectory layers incrementally, through
// the session's shards, with writes beside reads: admit latency follows
// the shard path, and report latency follows the whole-session analysis.
#include <deque>
#include <optional>

#include "base/json.h"
#include "base/rng.h"
#include "bench.h"
#include "model/serialize.h"
#include "service/loopback.h"
#include "service/protocol.h"
#include "trajectory/analysis.h"
#include "trajectory/batch.h"
#include "trajectory/shard.h"

namespace tfa::bench {
namespace {

using service::json_string;

constexpr std::int32_t kClusterNodes = 4;

struct Shape {
  std::int32_t clusters = 50;
  std::int32_t flows_per_cluster = 40;
  std::size_t window = 16;         ///< Admitted extras kept before removes.
  std::size_t analyze_every = 400;
};

/// The base set: per cluster, flows over two-node paths inside the
/// cluster's four nodes (the bench_shard pattern), with a seeded pairing
/// and period phase per cluster.
model::FlowSet base_set(const Shape& shape, std::uint64_t seed) {
  model::FlowSet set(
      model::Network(shape.clusters * kClusterNodes, 1, 1));
  for (std::int32_t c = 0; c < shape.clusters; ++c) {
    Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(c));
    const std::int64_t pair_phase = rng.uniform(0, 2);
    const std::int64_t period_phase = rng.uniform(0, 6);
    const NodeId base = c * kClusterNodes;
    for (std::int32_t i = 0; i < shape.flows_per_cluster; ++i) {
      const NodeId a = base + i % kClusterNodes;
      const NodeId b = base + static_cast<NodeId>(
                                  (i % kClusterNodes + 1 +
                                   (i / kClusterNodes + pair_phase) %
                                       (kClusterNodes - 1)) %
                                  kClusterNodes);
      const Duration period = 40 + 10 * ((i + period_phase) % 7);
      set.add(model::SporadicFlow(
          "c" + std::to_string(c) + "_f" + std::to_string(i),
          model::Path{a, b}, period, 1, rng.uniform(0, 20), 100'000));
    }
  }
  return set;
}

enum class Kind { kAdmit, kRemove, kAnalyze, kMetrics };

struct Request {
  Kind kind = Kind::kMetrics;
  std::string line;
  model::SporadicFlow flow;  ///< kAdmit: the candidate.
  std::string name;          ///< kRemove: the flow torn down.
  bool cross = false;        ///< kAdmit: spans two clusters.
};

/// The client: generates the request stream from the seed and the
/// outcomes seen so far, and mirrors the session's flow list (base flows,
/// then admitted extras in admission order — the session's own order).
class Client {
 public:
  Client(const Shape& shape, std::uint64_t seed, model::FlowSet base)
      : shape_(shape), rng_(Rng::stream(seed, 1u << 20)),
        base_(std::move(base)) {}

  Request next(std::size_t i) {
    Request r;
    if (i % shape_.analyze_every == shape_.analyze_every - 1) {
      r.kind = Kind::kAnalyze;
      r.line = R"({"op":"analyze","session":"mix"})";
    } else if (i % 5 == 1 || i % 5 == 3) {
      // Two in five requests are cheap reads, which puts the request
      // median among the removes (see candidate()).
      r.kind = Kind::kMetrics;
      r.line = R"({"op":"metrics"})";
    } else if (window_.size() > shape_.window) {
      r.kind = Kind::kRemove;
      r.name = window_.front().name();
      r.line = R"({"op":"remove_flow","session":"mix","name":)" +
               json_string(r.name) + "}";
    } else {
      r.kind = Kind::kAdmit;
      r.flow = candidate(&r.cross);
      r.line = R"({"op":"admit","session":"mix","flow":)" +
               json_string(flow_line(r.flow)) + "}";
    }
    return r;
  }

  /// A candidate: every 25th crosses two clusters, two in five have a
  /// deadline equal to their best-case response (below any bound with
  /// interference, so they are rejected), the rest are ordinary in-cluster
  /// flows.  A rejected flow is never removed, so admits are five in
  /// eight of the writes and removes three in eight.  With the reads
  /// (two in five requests, all faster than any write) the request median
  /// falls near the middle of the removes' latencies, a narrow mode that
  /// keeps its shape when the machine slows.  The admits' latencies are
  /// not such a mode: an admit right after a rejected one has no removed
  /// flow's shard to settle and is faster, and on the baseline machine
  /// that faster group (about 0.8 against 1.4 ms) shrinks in the machine's
  /// slow minutes.  With the median among the admits, two ten-seed series
  /// gave medians 0.96 and 1.30 ms while throughput moved by 12%; with
  /// admits and removes each half of the writes (few rejections), the
  /// median fell in the gap between them and jumped by a third.
  model::SporadicFlow candidate(bool* cross) {
    const std::size_t serial = serial_++;
    const auto c = static_cast<NodeId>(rng_.uniform(0, shape_.clusters - 1));
    const NodeId a = c * kClusterNodes + static_cast<NodeId>(rng_.uniform(0, 3));
    NodeId b = c * kClusterNodes +
               static_cast<NodeId>((a % kClusterNodes + rng_.uniform(1, 3)) %
                                   kClusterNodes);
    *cross = serial % 25 == 12 && shape_.clusters > 1;
    if (*cross) {
      const auto other = static_cast<NodeId>(
          (c + rng_.uniform(1, shape_.clusters - 1)) % shape_.clusters);
      b = other * kClusterNodes + static_cast<NodeId>(rng_.uniform(0, 3));
    }
    const Duration deadline =
        serial % 5 == 1 || serial % 5 == 3 ? 3 : 100'000;
    return model::SporadicFlow("x" + std::to_string(serial), model::Path{a, b},
                               rng_.uniform(40, 100), 1, 0, deadline);
  }

  void admitted(const model::SporadicFlow& f) { window_.push_back(f); }
  void removed() { window_.pop_front(); }

  /// The session's flow set as the client believes it to be.
  [[nodiscard]] model::FlowSet mirror() const {
    model::FlowSet set = base_;
    for (const model::SporadicFlow& f : window_) set.add(f);
    return set;
  }

 private:
  Shape shape_;
  Rng rng_;
  model::FlowSet base_;
  std::deque<model::SporadicFlow> window_;
  std::size_t serial_ = 0;
};

/// Admit response fields the checks read.
struct AdmitReply {
  bool ok = false;
  bool admitted = false;
  std::optional<double> bound;
};

AdmitReply parse_admit(const std::string& response) {
  AdmitReply a;
  const auto doc = json_parse(response);
  if (!doc) return a;
  const JsonValue* ok = doc->find("ok");
  const JsonValue* result = doc->find("result");
  if (ok == nullptr || !ok->boolean || result == nullptr) return a;
  a.ok = true;
  const JsonValue* admitted = result->find("admitted");
  a.admitted = admitted != nullptr && admitted->boolean;
  const JsonValue* bound = result->find("bound");
  if (bound != nullptr && bound->kind == JsonValue::Kind::kNumber)
    a.bound = bound->number;
  return a;
}

/// The same requests applied directly to the layers under the service,
/// each call timed: a ShardedAnalyzer for admits and removes, and the
/// session's warm-start path (reanalyze_with over one AnalysisCache) plus
/// the layer replay for whole-session analyses.
struct Replica {
  trajectory::ShardedAnalyzer shards;
  trajectory::AnalysisCache cache;
  std::vector<LayerSample> layers;
  std::vector<double> direct_ms;     ///< Per replayed request.
  std::vector<double> service_ms;    ///< Same requests through Loopback.
  std::vector<double> analyzed_share;
  std::size_t admit_mismatches = 0;

  Replica(const model::FlowSet& set, const Client& client)
      : shards(set.network()) {
    shards.load(client.mirror());
    (void)shards.settle();
    (void)trajectory::reanalyze_with(client.mirror(), cache, {});
  }
};

}  // namespace

void run_admission_mix(const Options& opt, Report& report, Tracer* tracer) {
  Shape shape;
  if (opt.tiny) {
    shape.clusters = 4;
    shape.flows_per_cluster = 10;
    shape.window = 4;
    shape.analyze_every = 40;
  }

  // ---- set-up: generate the base set, load it over the wire, and pay the
  // first admit, which builds the session's shards.  It is repeated on a
  // fresh Loopback between requests over the run; the first session is
  // the one the requests go to.
  std::optional<service::Loopback> lb;
  std::optional<Client> client;
  std::string setup_error;
  const auto open_session = [&](std::optional<service::Loopback>& into,
                                std::optional<Client>& by, Tracer* t) {
    const model::FlowSet base = base_set(shape, opt.seed);
    const std::string text = model::serialize_flow_set(base);
    if (t != nullptr)
      t->time("model.parse", 0, -1, [&] { (void)model::parse_flow_set(text); });
    into.emplace();
    by.emplace(shape, opt.seed, base);
    const std::string load = into->request(
        R"({"op":"load_network","session":"mix","text":)" +
        json_string(text) + "}");
    if (!response_ok(load)) setup_error = "load_network: " + load.substr(0, 200);
    bool cross = false;
    const model::SporadicFlow first = by->candidate(&cross);
    const AdmitReply a = parse_admit(into->request(
        R"({"op":"admit","session":"mix","flow":)" +
        json_string(flow_line(first)) + "}"));
    if (!a.ok) setup_error = "first admit failed";
    if (a.admitted) by->admitted(first);
  };
  SetupSampler setup;
  setup.run([&] { open_session(lb, client, tracer); });
  if (!setup_error.empty()) {
    report.check("setup", false, setup_error);
    return;
  }
  const auto reopen = [&] {
    std::optional<service::Loopback> other;
    std::optional<Client> other_client;
    open_session(other, other_client, nullptr);
  };

  // ---- timed requests.
  std::vector<double> admit_ms, report_ms;
  std::size_t i = 0, admitted = 0, rejected = 0, cross_admitted = 0;
  std::size_t response_bytes = 0, responses = 0, errors = 0;
  Digest digest;
  // Snapshots for the cross-path checks, taken in the loop (cheap copies)
  // and checked after it.
  std::optional<std::pair<model::FlowSet, std::string>> analyze_sample;
  std::vector<std::tuple<model::FlowSet, model::SporadicFlow, double>>
      admit_samples;
  std::optional<Replica> replica;

  const auto run_phase = [&](double seconds, Tracer* t) {
    std::vector<double> lat;
    const std::int64_t spent_before = setup.spent_ns();
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    // The first phase always reaches the first analyze, so the digest
    // (over the first analyze_every responses) is complete.
    const std::size_t min_i = i == 0 ? shape.analyze_every : 0;
    while (i < min_i || now_ns() < deadline) {
      const Request r = client->next(i);
      const bool sample_admit = r.kind == Kind::kAdmit && admit_samples.size() < 2 &&
                                (r.cross || admit_samples.empty());
      std::optional<model::FlowSet> before;
      if (sample_admit) before = client->mirror();

      const int span = t != nullptr ? t->begin("service.request", i) : -1;
      const std::int64_t t0 = now_ns();
      const std::string response = lb->request(r.line);
      const double ms = ms_between(t0, now_ns());
      if (t != nullptr) t->end(span);
      lat.push_back(ms);
      ++report.attempted;
      ++responses;
      response_bytes += response.size();
      if (i < shape.analyze_every) digest.add(response);
      if (!response_ok(response)) ++errors;

      switch (r.kind) {
        case Kind::kAdmit: {
          admit_ms.push_back(ms);
          const AdmitReply a = parse_admit(response);
          if (a.admitted) {
            ++admitted;
            cross_admitted += r.cross ? 1 : 0;
            client->admitted(r.flow);
            if (sample_admit && a.bound)
              admit_samples.emplace_back(std::move(*before), r.flow, *a.bound);
          } else {
            ++rejected;
          }
          break;
        }
        case Kind::kRemove:
          client->removed();
          break;
        case Kind::kAnalyze:
          report_ms.push_back(ms);
          if (!analyze_sample) analyze_sample.emplace(client->mirror(), response);
          break;
        case Kind::kMetrics:
          break;
      }

      if (t != nullptr) {
        t->time("service.parse_request", i, span,
                [&] { (void)service::parse_request(r.line); });
        Replica& rep = *replica;
        double direct = -1;
        switch (r.kind) {
          case Kind::kAdmit: {
            const double settle = t->time("shard.settle", i, span,
                                          [&] { (void)rep.shards.settle(); });
            trajectory::AdmitOutcome o;
            direct = settle + t->time("shard.admit", i, span,
                                      [&] { o = rep.shards.admit(r.flow); });
            rep.analyzed_share.push_back(
                static_cast<double>(o.shard_flows) /
                static_cast<double>(rep.shards.size()));
            const AdmitReply a = parse_admit(response);
            if (o.admitted != a.admitted ||
                (a.bound && static_cast<double>(o.candidate_bound) != *a.bound))
              ++rep.admit_mismatches;
            break;
          }
          case Kind::kRemove:
            direct = t->time("shard.remove", i, span,
                             [&] { (void)rep.shards.remove_flow(r.name); });
            break;
          case Kind::kAnalyze: {
            const model::FlowSet set = client->mirror();
            direct = t->time("trajectory.reanalyze", i, span, [&] {
              (void)trajectory::reanalyze_with(set, rep.cache, {});
            });
            trajectory::Result cold;
            rep.layers.push_back(traced_analyze(*t, i, set, {}, &cold));
            break;
          }
          case Kind::kMetrics:
            break;
        }
        if (direct >= 0) {
          rep.direct_ms.push_back(direct);
          rep.service_ms.push_back(ms);
        }
      }
      ++i;
      setup.maybe(reopen);
    }
    return std::pair(lat, static_cast<double>(now_ns() - start -
                                              setup.spent_ns() + spent_before) /
                              1e9);
  };

  if (tracer == nullptr) {
    const auto [lat, wall] = run_phase(opt.seconds, nullptr);
    add_latency(report, "latency", lat);
    report.add("throughput_ops_s", static_cast<double>(lat.size()) / wall, "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    add_latency(report, "admit", admit_ms);
    add_latency(report, "report", report_ms);
    add_attribution(report, client->mirror(), {});
  } else {
    const auto plain = run_phase(opt.seconds / 3, nullptr);
    // The replica starts from the session's state at the phase boundary.
    replica.emplace(base_set(shape, opt.seed), *client);
    const auto traced = run_phase(opt.seconds * 2 / 3, tracer);
    Replica& rep = *replica;
    if (!rep.layers.empty()) add_layer_metrics(report, rep.layers);
    report.add("model.parse_ms", median(tracer->durations_ms("model.parse")), "ms");
    report.add("trajectory.reanalyze_ms",
               median(tracer->durations_ms("trajectory.reanalyze")), "ms");
    report.add("shard.admit_ms", median(tracer->durations_ms("shard.admit")), "ms");
    report.add("shard.remove_ms", median(tracer->durations_ms("shard.remove")), "ms");
    report.add("shard.settle_ms", median(tracer->durations_ms("shard.settle")), "ms");
    report.add("shard.analyzed_share", mean(rep.analyzed_share), "ratio");
    const trajectory::ShardStats st = rep.shards.stats();
    const auto per_request = static_cast<double>(st.requests);
    report.add("shard.merges", static_cast<double>(st.merges) / per_request, "count");
    report.add("shard.splits", static_cast<double>(st.splits) / per_request, "count");
    report.add("service.parse_request_us",
               1e3 * median(tracer->durations_ms("service.parse_request")), "us");
    std::vector<double> overhead;
    for (std::size_t k = 0; k < rep.direct_ms.size(); ++k)
      overhead.push_back(rep.service_ms[k] - rep.direct_ms[k]);
    report.add("service.overhead_ms", median(overhead), "ms");
    report.add("service.memo_hit_ratio", 0.0, "ratio");
    report.add("service.response_bytes",
               static_cast<double>(response_bytes) / static_cast<double>(responses),
               "bytes");
    report.add("trace.overhead_ratio",
               median(traced.first) / median(plain.first), "ratio");
    report.check_count("shard_replay_matches_service", rep.admit_mismatches,
                       "admits decided differently by the direct "
                       "ShardedAnalyzer");
  }
  report.add("setup_s", setup.median_s(), "s");
  report.note("setup_repetitions", std::to_string(setup.count()));
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"requests\":%zu,\"admitted\":%zu,\"rejected\":%zu,"
                "\"cross_cluster_admitted\":%zu,\"flows\":%zu}",
                i, admitted, rejected, cross_admitted, client->mirror().size());
  report.note("mix", buf);

  // ---- correctness, outside the timed region.
  report.check("setup", setup_error.empty(), setup_error);
  report.digest = digest.hex();
  report.check_count("requests_succeeded", errors,
                     "error envelopes in the request stream");
  report.check("rejections_seen", rejected > 0 && admitted > 0,
               "the mix must both admit and reject");
  if (analyze_sample) {
    const auto& [set, response] = *analyze_sample;
    const trajectory::Result r = trajectory::analyze(set, {});
    const std::string diff = compare_wire_bounds(response, set, r);
    report.check("loopback_equals_in_process", diff.empty(), diff);
  }
  for (const auto& [set, flow, bound] : admit_samples) {
    model::FlowSet with = set;
    const FlowIndex idx = with.add(flow);
    const trajectory::Result r = trajectory::analyze(with, {});
    const trajectory::FlowBound* b = r.find(idx);
    report.check("shard_admit_equals_global",
                 b != nullptr && static_cast<double>(b->response) == bound,
                 flow.name() + ": admit bound differs from the global analysis");
  }
  // Simulate one cluster of the base set (chosen by the seed) against its
  // own in-process bounds.
  const model::FlowSet base = base_set(shape, opt.seed);
  const auto cluster = static_cast<std::int32_t>(opt.seed %
                                                 static_cast<std::uint64_t>(shape.clusters));
  model::FlowSet one(base.network());
  for (std::int32_t k = 0; k < shape.flows_per_cluster; ++k)
    one.add(base.flow(cluster * shape.flows_per_cluster + k));
  const trajectory::Result r = trajectory::analyze(one, {});
  const std::string sim = sim_check(one, r, false, opt.seed);
  report.check("sim_within_bounds", sim.empty(), sim);
}

}  // namespace tfa::bench
