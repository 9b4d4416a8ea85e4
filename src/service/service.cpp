#include "service/service.h"

#include <chrono>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "base/contracts.h"
#include "model/serialize.h"
#include "obs/eventlog.h"
#include "obs/exposition.h"
#include "obs/telemetry.h"
#include "provision/planner.h"
#include "trajectory/batch.h"
#include "trajectory/stats.h"

namespace tfa::service {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* smax_name(trajectory::SmaxSemantics s) noexcept {
  return s == trajectory::SmaxSemantics::kArrival ? "arrival" : "completion";
}

/// Parses one `flow ...` line against `net` by round-tripping through the
/// flow-set text format: the network header plus the single line.  The
/// strictness (and the error wording) is therefore exactly the parser's.
std::optional<model::SporadicFlow> parse_flow_line(const model::Network& net,
                                                   const std::string& line,
                                                   std::string* why) {
  std::string doc = model::serialize_flow_set(model::FlowSet(net));
  if (doc.empty() || doc.back() != '\n') doc += '\n';
  doc += line;
  doc += '\n';
  const model::ParseResult parsed = model::parse_flow_set(doc);
  if (!parsed.ok()) {
    *why = parsed.error;
    return std::nullopt;
  }
  if (parsed.flow_set->size() != 1) {
    *why = "expected exactly one 'flow ...' line";
    return std::nullopt;
  }
  return parsed.flow_set->flow(FlowIndex{0});
}

/// The analyze result body minus the leading "cached" flag.  Everything
/// here is deterministic for any worker count: bounds in engine order,
/// work counters only (no wall times).
std::string render_analyze_fragment(const model::FlowSet& set,
                                    const trajectory::Result& r) {
  std::string out = "\"all_schedulable\":";
  out += r.all_schedulable ? "true" : "false";
  out += ",\"converged\":";
  out += r.converged ? "true" : "false";
  out += ",\"bounds\":[";
  for (std::size_t i = 0; i < r.bounds.size(); ++i) {
    const trajectory::FlowBound& b = r.bounds[i];
    if (i > 0) out += ',';
    out += "{\"flow\":";
    out += json_string(set.flow(b.flow).name());
    out += ",\"response\":";
    out += json_duration(b.response);
    out += ",\"jitter\":";
    out += json_duration(b.jitter);
    out += ",\"busy_period\":";
    out += json_duration(b.busy_period);
    out += ",\"delta\":";
    out += json_duration(b.delta);
    out += ",\"schedulable\":";
    out += b.schedulable ? "true" : "false";
    out += '}';
  }
  out += "],\"stats\":{\"smax_passes\":";
  out += std::to_string(r.stats.smax_passes);
  out += ",\"cache_hits\":";
  out += std::to_string(r.stats.cache_hits);
  out += ",\"cache_misses\":";
  out += std::to_string(r.stats.cache_misses);
  out += ",\"warm_seeded\":";
  out += std::to_string(r.stats.warm_seeded_entries);
  out += '}';
  return out;
}

WireError deadline_error(std::int64_t waited_ns, std::int64_t deadline_ms) {
  WireError e;
  e.code = "deadline_exceeded";
  e.message = "request waited " + std::to_string(waited_ns / 1'000'000) +
              " ms, past its " + std::to_string(deadline_ms) + " ms deadline";
  return e;
}

WireError oversized_error(std::size_t bytes, std::size_t limit) {
  WireError e;
  e.code = "oversized";
  e.message = "request of " + std::to_string(bytes) + " bytes exceeds the " +
              std::to_string(limit) + "-byte limit";
  return e;
}

/// The service-generated trace id for a traceless request: a pure
/// function of the sequence number, so transcripts stay byte-identical
/// across transports, worker counts and executor counts.
std::string generated_trace(std::uint64_t seq) {
  return "t" + std::to_string(seq);
}

/// RAII span-context window: spans opened on `tracer` while the guard
/// lives carry `trace` (obs/span.h).  Null tracer = no-op.
class TraceContextGuard {
 public:
  TraceContextGuard() = default;
  TraceContextGuard(obs::Tracer* tracer, const std::string& trace)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->set_context(trace);
  }
  TraceContextGuard(const TraceContextGuard&) = delete;
  TraceContextGuard& operator=(const TraceContextGuard&) = delete;
  ~TraceContextGuard() {
    if (tracer_ != nullptr) tracer_->clear_context();
  }

 private:
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace

std::vector<std::int64_t> latency_bounds(std::int64_t unit_ns) {
  // Sub-100us (memo hits) up to a >10s overflow bucket.
  std::vector<std::int64_t> bounds;
  for (std::int64_t us = 100; us <= 10'000'000; us *= 10)
    bounds.push_back(us * 1000 / unit_ns);
  return bounds;
}

Service::Reply Service::fail(std::string code, std::string message) {
  Reply reply;
  reply.error.code = std::move(code);
  reply.error.message = std::move(message);
  return reply;
}

Service::Service(ServiceConfig cfg, obs::Telemetry* telemetry)
    : cfg_(std::move(cfg)),
      owned_store_(std::make_unique<SessionStore>(cfg_.max_sessions)),
      store_(owned_store_.get()),
      telemetry_(telemetry) {
  if (!cfg_.clock) cfg_.clock = steady_now_ns;
  // The service sink is long-lived like a session's: cap series and spans.
  if (telemetry_ != nullptr) telemetry_->set_capacity(obs::kLongLivedCapacity);
}

Service::Service(ServiceConfig cfg, obs::Telemetry* telemetry,
                 SessionStore* shared)
    : cfg_(std::move(cfg)), store_(shared), telemetry_(telemetry) {
  TFA_EXPECTS(shared != nullptr);
  if (!cfg_.clock) cfg_.clock = steady_now_ns;
  if (telemetry_ != nullptr) telemetry_->set_capacity(obs::kLongLivedCapacity);
}

void Service::bump(std::string_view counter) {
  if (telemetry_ != nullptr) ++telemetry_->metrics.counter(counter);
}

void Service::note_response(std::uint64_t seq, std::string_view op_text,
                            const std::string& trace, bool ok,
                            std::int64_t latency_ns, const RequestMeta& meta,
                            const WireError* error) {
  if (cfg_.flight_recorder_depth > 0) {
    FlightRecord rec;
    rec.seq = seq;
    rec.op = std::string(op_text);
    rec.trace = trace;
    rec.ok = ok;
    rec.bytes = meta.bytes;
    rec.latency_ns = latency_ns;
    rec.shard = meta.shard;
    rec.smax_passes = meta.smax_passes;
    flight_.push_back(std::move(rec));
    while (flight_.size() > cfg_.flight_recorder_depth) flight_.pop_front();
  }
  if (cfg_.event_log == nullptr) return;
  const bool deadline_trip =
      error != nullptr && error->code == "deadline_exceeded";
  const bool slow =
      cfg_.slow_request_ns > 0 && latency_ns >= cfg_.slow_request_ns;
  if (deadline_trip) {
    cfg_.event_log->record(
        obs::EventSeverity::kWarn, "service.deadline_miss",
        {{"seq", std::to_string(seq)},
         {"op", op_text.empty() ? std::string("null") : json_string(op_text)},
         {"trace", json_string(trace)},
         {"latency_ns", std::to_string(latency_ns)}});
  }
  if ((slow || deadline_trip) && cfg_.flight_recorder_depth > 0) {
    // Dump the whole ring: the records leading up to the slow/missed
    // request give the phase-level context docs/observability.md
    // describes.
    std::string records = "[";
    for (std::size_t i = 0; i < flight_.size(); ++i) {
      const FlightRecord& rec = flight_[i];
      if (i > 0) records += ',';
      records += "{\"seq\":" + std::to_string(rec.seq) + ",\"op\":";
      records += rec.op.empty() ? std::string("null") : json_string(rec.op);
      records += ",\"trace\":" + json_string(rec.trace);
      records += ",\"ok\":";
      records += rec.ok ? "true" : "false";
      records += ",\"bytes\":" + std::to_string(rec.bytes);
      records += ",\"latency_ns\":" + std::to_string(rec.latency_ns);
      records += ",\"shard\":" + std::to_string(rec.shard);
      records += ",\"smax_passes\":" + std::to_string(rec.smax_passes);
      records += '}';
    }
    records += ']';
    cfg_.event_log->record(
        obs::EventSeverity::kWarn, "service.flight_recorder",
        {{"trigger", json_string(deadline_trip ? "deadline" : "slow_request")},
         {"seq", std::to_string(seq)},
         {"trace", json_string(trace)},
         {"records", records}});
  }
}

std::string Service::respond(std::uint64_t seq, const std::string& id_json,
                             std::string_view op_text,
                             const std::string& trace, const Reply& reply,
                             std::int64_t start_ns, const RequestMeta& meta) {
  const bool ok = reply.error.code.empty();
  if (!ok) {
    bump("service.errors");
    if (telemetry_ != nullptr)
      ++telemetry_->metrics.counter("service.errors." + reply.error.code);
  }
  std::string line =
      ok ? ok_envelope(seq, id_json, op_text, trace, reply.result)
         : error_envelope(seq, id_json, op_text, trace, reply.error);
  // One clock call per response, telemetry or not, so an injected clock
  // ticks on the same schedule either way.
  const std::int64_t latency = cfg_.clock() - start_ns;
  if (telemetry_ != nullptr) {
    static const std::vector<std::int64_t> kLatencyUsBounds =
        latency_bounds(1000);
    telemetry_->metrics.histogram("service.latency_us", kLatencyUsBounds)
        .record(latency / 1000);
    telemetry_->metrics.timer("service.latency_ns") += latency;
  }
  note_response(seq, op_text, trace, ok, latency, meta,
                ok ? nullptr : &reply.error);
  return line;
}

std::string Service::submit(std::string_view line) {
  return submit_at(line, cfg_.clock(), /*transport_stamped=*/false);
}

std::string Service::submit(std::string_view line, std::int64_t arrival_ns) {
  return submit_at(line, arrival_ns, /*transport_stamped=*/true);
}

std::string Service::submit_oversized(std::size_t bytes) {
  const std::uint64_t seq = ++seq_;
  const std::int64_t start = cfg_.clock();
  bump("service.requests");
  RequestMeta meta;
  meta.bytes = bytes;
  // Ordered like the in-band size gate: before the draining check, so a
  // refused-to-buffer line answers `oversized` in every service state.
  return respond(seq, "", "", generated_trace(seq),
                 {{}, oversized_error(bytes, cfg_.max_request_bytes)}, start,
                 meta);
}

std::string Service::submit_at(std::string_view line, std::int64_t start,
                               bool transport_stamped) {
  const std::uint64_t seq = ++seq_;
  bump("service.requests");
  RequestMeta meta;
  meta.bytes = line.size();

  // Size gate before parsing: an oversized line is rejected unread.
  if (line.size() > cfg_.max_request_bytes) {
    return respond(seq, "", "", generated_trace(seq),
                   {{}, oversized_error(line.size(), cfg_.max_request_bytes)},
                   start, meta);
  }

  ParsedRequest p = parse_request(line);
  // The wire trace id, generated when the request carried none — every
  // envelope from here on echoes it.
  const std::string trace = p.trace.empty() ? generated_trace(seq) : p.trace;

  // Graceful drain: after shutdown every request — well-formed or not —
  // is refused with `draining` (the parse above only salvages the echo).
  if (draining_) {
    return respond(seq, p.id_json, p.op_text, trace,
                   fail("draining", "service is draining after shutdown"),
                   start, meta);
  }

  if (!p.ok)
    return respond(seq, p.id_json, p.op_text, trace, {{}, p.error}, start,
                   meta);

  if (telemetry_ != nullptr)
    ++telemetry_->metrics.counter("service.op." + p.op_text);

  // A non-analyze op whose deadline already expired while the request
  // sat in the transport (only observable with a transport arrival stamp
  // — in the unstamped path `start` is the current clock reading, so the
  // elapsed time is zero by construction).  `analyze` checks its
  // deadline itself, just before the engine runs.
  if (transport_stamped && p.request.deadline_ms &&
      p.request.op != Op::kAnalyze) {
    const std::int64_t waited = cfg_.clock() - start;
    if (waited > *p.request.deadline_ms * 1'000'000) {
      return respond(seq, p.id_json, p.op_text, trace,
                     {{}, deadline_error(waited, *p.request.deadline_ms)},
                     start, meta);
    }
  }

  const TraceContextGuard trace_ctx(
      telemetry_ != nullptr ? &telemetry_->trace : nullptr, trace);
  const obs::Span op_span = obs::span(telemetry_, "service." + p.op_text);
  const Reply reply = execute(p.request, trace, start, meta);
  return respond(seq, p.id_json, p.op_text, trace, reply, start, meta);
}

Session* Service::find_session(const std::string& name, Reply& reply) {
  Session* sess = store_->find(name);
  if (sess == nullptr)
    reply = fail("unknown_session", "no session named '" + name + "'");
  return sess;
}

Service::RunOptions Service::run_options(const AnalyzeOptions& o) const {
  RunOptions run{cfg_.analysis, std::string(o.ef_mode ? "ef/" : "fifo/") +
                                    smax_name(o.smax)};
  run.cfg.ef_mode = o.ef_mode;
  run.cfg.smax_semantics = o.smax;
  run.cfg.workers = cfg_.workers;
  return run;
}

Service::Reply Service::execute(const Request& r, const std::string& trace,
                                std::int64_t start_ns, RequestMeta& meta) {
  Reply reply;
  switch (r.op) {
    case Op::kLoadNetwork: {
      const model::ParseResult parsed = model::parse_flow_set(r.text);
      if (!parsed.ok()) {
        reply = fail("bad_flow_set", parsed.located_error());
        reply.error.line = parsed.error_line;
        return reply;
      }
      if (const auto issues = parsed.flow_set->validate(); !issues.empty()) {
        std::string message = issues.front().message;
        if (issues.size() > 1)
          message +=
              " (+" + std::to_string(issues.size() - 1) + " more issue(s))";
        return fail("invalid_flow_set", std::move(message));
      }
      Session* sess = nullptr;
      switch (store_->create(r.session, &sess)) {
        case SessionStore::Create::kDuplicate:
          return fail("duplicate_session",
                      "a session named '" + r.session + "' already exists");
        case SessionStore::Create::kFull:
          return fail("too_many_sessions",
                      "session limit of " +
                          std::to_string(store_->capacity()) + " reached");
        case SessionStore::Create::kCreated:
          break;
      }
      std::size_t flows = 0;
      std::size_t nodes = 0;
      {
        const std::scoped_lock session_lock(sess->mu);
        sess->set = *parsed.flow_set;
        flows = sess->set.size();
        nodes = static_cast<std::size_t>(sess->set.network().node_count());
      }
      if (telemetry_ != nullptr)
        telemetry_->metrics.gauge("service.sessions") =
            static_cast<std::int64_t>(store_->size());
      reply.result = "{\"session\":" + json_string(r.session) +
                     ",\"flows\":" + std::to_string(flows) +
                     ",\"nodes\":" + std::to_string(nodes) + "}";
      return reply;
    }
    case Op::kAnalyze: {
      Session* sess = find_session(r.session, reply);
      std::unique_lock<std::mutex> session_lock;
      if (sess != nullptr) session_lock = std::unique_lock(sess->mu);
      // One clock reading just before the engine runs, so time spent in
      // the transport queue and waiting for the session lock both count
      // against the deadline.
      const std::int64_t waited = cfg_.clock() - start_ns;
      if (r.deadline_ms && waited > *r.deadline_ms * 1'000'000)
        return {{}, deadline_error(waited, *r.deadline_ms)};
      if (sess == nullptr) return reply;
      if (sess->set.empty())
        return fail("empty_session",
                    "session '" + r.session + "' has no flows to analyse");
      // Every mutation invalidates the memo, so the options alone key it.
      RunOptions run = run_options(r.analyze);
      if (sess->memo_key == run.key) {
        bump("service.analyze.memo_hits");
        reply.result = "{\"cached\":true," + sess->memo_fragment + "}";
        return reply;
      }
      trajectory::Result res;
      {
        // The session tracer carries this request's trace id through the
        // engine's phase spans.
        const TraceContextGuard session_ctx(&sess->telemetry.trace, trace);
        res = trajectory::reanalyze_with(sess->set, sess->cache, run.cfg,
                                         &sess->telemetry);
      }
      if (telemetry_ != nullptr) {
        ++telemetry_->metrics.counter("trajectory.sets_reanalyzed");
        trajectory::publish_stats(res.stats, telemetry_->metrics);
      }
      ++sess->analyzes;
      sess->memo_key = std::move(run.key);
      sess->memo_fragment = render_analyze_fragment(sess->set, res);
      meta.smax_passes = res.stats.smax_passes;
      reply.result = "{\"cached\":false," + sess->memo_fragment + "}";
      return reply;
    }
    case Op::kAddFlow: {
      Session* sess = find_session(r.session, reply);
      if (sess == nullptr) return reply;
      const std::scoped_lock session_lock(sess->mu);
      std::string why;
      const auto flow = parse_flow_line(sess->set.network(), r.flow, &why);
      if (!flow) return fail("bad_flow_set", std::move(why));
      if (sess->set.find(flow->name()))
        return fail("duplicate_flow", "a flow named '" + flow->name() +
                                          "' already exists in session '" +
                                          r.session + "'");
      model::FlowSet tentative = sess->set;
      tentative.add(*flow);
      if (const auto issues = tentative.validate(); !issues.empty())
        return fail("invalid_flow_set", issues.front().message);
      sess->set = std::move(tentative);
      if (sess->sharded) sess->sharded->add_flow(*flow);
      sess->invalidate_memo();
      reply.result = "{\"flows\":" + std::to_string(sess->set.size()) + "}";
      return reply;
    }
    case Op::kRemoveFlow: {
      Session* sess = find_session(r.session, reply);
      if (sess == nullptr) return reply;
      const std::scoped_lock session_lock(sess->mu);
      const auto idx = sess->set.find(r.name);
      if (!idx)
        return fail("unknown_flow", "no flow named '" + r.name +
                                        "' in session '" + r.session + "'");
      model::FlowSet next(sess->set.network());
      for (std::size_t i = 0; i < sess->set.size(); ++i)
        if (static_cast<FlowIndex>(i) != *idx)
          next.add(sess->set.flow(static_cast<FlowIndex>(i)));
      sess->set = std::move(next);
      if (sess->sharded) sess->sharded->remove_flow(r.name);
      // The cache is kept: reanalyze_with() detects the removal and
      // falls back to a cold start on its own.
      sess->invalidate_memo();
      reply.result = "{\"flows\":" + std::to_string(sess->set.size()) + "}";
      return reply;
    }
    case Op::kAdmit: {
      Session* sess = find_session(r.session, reply);
      if (sess == nullptr) return reply;
      const std::scoped_lock session_lock(sess->mu);
      std::string why;
      const auto flow = parse_flow_line(sess->set.network(), r.flow, &why);
      if (!flow) return fail("bad_flow_set", std::move(why));
      // Shard-routed admission: the session's analyzer partitions its
      // flows into connected components of the dependency graph, and the
      // admit analyses only the shards the candidate's path touches —
      // decisions bit-identical to the whole-set evaluate() path
      // (docs/sharding.md).  The analyzer is rebuilt whenever the
      // request's analysis options differ from the ones it was built
      // with, since per-shard results are only valid under one Config.
      RunOptions run = run_options(r.analyze);
      if (!sess->sharded || sess->sharded_key != run.key) {
        sess->sharded = std::make_unique<trajectory::ShardedAnalyzer>(
            sess->set.network(), run.cfg);
        sess->sharded->attach_telemetry(&sess->telemetry);
        sess->sharded->load(sess->set);
        sess->sharded_key = std::move(run.key);
      }
      trajectory::AdmitOutcome d;
      {
        // The session tracer carries this request's trace id through the
        // shard-routed settle + tentative Smax run.
        const TraceContextGuard session_ctx(&sess->telemetry.trace, trace);
        d = sess->sharded->admit(*flow);
      }
      if (d.admitted) {
        sess->set.add(*flow);
        sess->invalidate_memo();
      }
      bump(d.admitted ? "service.admit.admitted" : "service.admit.rejected");
      meta.shard = d.shard;
      meta.smax_passes = d.stats.smax_passes;
      if (cfg_.event_log != nullptr && d.merged_shards > 0) {
        cfg_.event_log->record(
            obs::EventSeverity::kInfo, "service.shard_merge",
            {{"session", json_string(r.session)},
             {"trace", json_string(trace)},
             {"shard", std::to_string(d.shard)},
             {"merged", std::to_string(d.merged_shards)}});
      }
      const trajectory::ShardStats shards = sess->sharded->stats();
      std::string& result = reply.result;
      result = "{\"admitted\":";
      result += d.admitted ? "true" : "false";
      result += ",\"reason\":" + json_string(d.reason);
      result += ",\"bound\":" + json_duration(d.candidate_bound);
      result += ",\"violating\":[";
      for (std::size_t i = 0; i < d.violating.size(); ++i) {
        if (i > 0) result += ',';
        result += json_string(d.violating[i]);
      }
      result += "],\"flows\":" + std::to_string(sess->set.size());
      result += ",\"shard\":{\"id\":" + std::to_string(d.shard) +
                ",\"flows\":" + std::to_string(d.shard_flows) +
                ",\"merged\":" + std::to_string(d.merged_shards) +
                ",\"shards\":" + std::to_string(shards.shards) +
                ",\"largest\":" + std::to_string(shards.largest_shard) + "}}";
      return reply;
    }
    case Op::kSnapshot: {
      Session* sess = find_session(r.session, reply);
      if (sess == nullptr) return reply;
      const std::scoped_lock session_lock(sess->mu);
      const std::size_t shards =
          sess->sharded ? sess->sharded->shard_count() : 0;
      reply.result = "{\"flows\":" + std::to_string(sess->set.size()) +
                     ",\"analyzes\":" + std::to_string(sess->analyzes) +
                     ",\"shards\":" + std::to_string(shards) + ",\"text\":" +
                     json_string(model::serialize_flow_set(sess->set)) + "}";
      return reply;
    }
    case Op::kProvision: {
      Session* sess = find_session(r.session, reply);
      if (sess == nullptr) return reply;
      const std::scoped_lock session_lock(sess->mu);
      if (sess->set.empty())
        return fail("empty_session",
                    "session '" + r.session + "' has no flows to provision");
      provision::Config pcfg;
      pcfg.capacity = r.capacity.value_or(0);
      std::optional<model::SporadicFlow> probe;
      if (!r.flow.empty()) {
        std::string why;
        probe = parse_flow_line(sess->set.network(), r.flow, &why);
        if (!probe) return fail("bad_flow_set", std::move(why));
      }
      provision::Plan plan;
      std::size_t headroom = 0;
      {
        // The session tracer carries this request's trace id through the
        // provisioning span(s).
        const TraceContextGuard session_ctx(&sess->telemetry.trace, trace);
        plan = provision::plan(sess->set, pcfg, &sess->telemetry);
        if (probe)
          headroom = provision::max_clones_within(sess->set, *probe,
                                                  pcfg.capacity, pcfg);
      }
      std::string& result = reply.result;
      result = "{\"all_sizeable\":";
      result += plan.all_sizeable ? "true" : "false";
      result += ",\"all_fit\":";
      result += plan.all_fit ? "true" : "false";
      result += ",\"total_work\":" + json_duration(plan.total_work);
      result += ",\"nodes\":[";
      for (std::size_t h = 0; h < plan.nodes.size(); ++h) {
        const provision::NodeBuffer& nb = plan.nodes[h];
        if (h > 0) result += ',';
        result += "{\"node\":" + std::to_string(nb.node);
        result += ",\"work\":" + json_duration(nb.work);
        result += ",\"packets\":" + json_duration(nb.packets);
        result += ",\"binding_flow\":";
        result += nb.binding_flow == kNoFlow
                      ? std::string("null")
                      : json_string(sess->set.flow(nb.binding_flow).name());
        result +=
            ",\"binding_segment\":" + std::to_string(nb.binding_segment);
        result += "}";
      }
      result += "]";
      if (probe) result += ",\"headroom\":" + std::to_string(headroom);
      result += "}";
      return reply;
    }
    case Op::kMetrics: {
      // Only the deterministic metric kinds go on the wire (counters,
      // histograms, series) — wall times stay in --metrics-out, so the
      // `metrics` response is identical for every worker count.
      std::string& result = reply.result;
      result = "{\"requests\":" + std::to_string(seq_) + ",\"sessions\":[";
      bool first = true;
      store_->for_each([&](const std::string& name, Session& sess) {
        const std::scoped_lock session_lock(sess.mu);
        if (!first) result += ',';
        first = false;
        result += "{\"name\":" + json_string(name) +
                  ",\"flows\":" + std::to_string(sess.set.size()) +
                  ",\"analyzes\":" + std::to_string(sess.analyzes);
        if (sess.sharded) {
          const trajectory::ShardStats st = sess.sharded->stats();
          result += ",\"shards\":{\"count\":" + std::to_string(st.shards) +
                    ",\"largest\":" + std::to_string(st.largest_shard) +
                    ",\"merges\":" + std::to_string(st.merges) +
                    ",\"splits\":" + std::to_string(st.splits) +
                    ",\"analyzed_shards\":" +
                    std::to_string(st.analyzed_shards) +
                    ",\"analyzed_flows\":" +
                    std::to_string(st.analyzed_flows) + "}";
        }
        result += "}";
      });
      result += "]";
      if (telemetry_ != nullptr)
        result += ",\"service\":" + telemetry_->metrics.deterministic_json();
      result += "}";
      return reply;
    }
    case Op::kStatsz: {
      // Prometheus-text exposition of the deterministic metric kinds
      // (counters, histograms, series): scoped to one session when the
      // request names one, otherwise the service registry plus every
      // session's under `session.<name>.` — merged in name order, so
      // the text is bit-identical for any worker/executor count.  The
      // full view (timers, gauges) lives on the HTTP --metrics-port
      // endpoint, which may serve host-dependent values.
      obs::MetricRegistry merged;
      if (!r.session.empty()) {
        Session* sess = find_session(r.session, reply);
        if (sess == nullptr) return reply;
        const std::scoped_lock session_lock(sess->mu);
        merged.merge(sess->telemetry.metrics);
      } else {
        if (telemetry_ != nullptr) merged.merge(telemetry_->metrics);
        store_->for_each([&](const std::string& name, Session& sess) {
          const std::scoped_lock session_lock(sess.mu);
          merged.merge_with_prefix(sess.telemetry.metrics,
                                   "session." + name + ".");
        });
      }
      obs::ExpositionOptions opts;
      opts.deterministic_only = true;
      reply.result = "{\"format\":\"prometheus\",\"text\":" +
                     json_string(obs::prometheus_text(merged, opts)) + "}";
      return reply;
    }
    case Op::kFlush:
      // Kept for protocol compatibility: every request is answered before
      // submit() returns, so there is never anything to flush.
      reply.result = "{\"flushed\":0}";
      return reply;
    case Op::kShutdown:
      draining_ = true;
      reply.result = "{\"sessions\":" + std::to_string(store_->size()) +
                     ",\"requests\":" + std::to_string(seq_) + "}";
      return reply;
  }
  TFA_ASSERT(false);
  return reply;
}

}  // namespace tfa::service
