// Workload wire_small: a SocketServer on TCP loopback with its default two
// executors, and one client thread driving two closed-loop connections.
// Each connection owns a tiny session (24 flows on two-node paths) and
// cycles memo-hit analyzes, an add_flow/remove_flow pair (each followed by
// an analyze that misses the memo) and metrics reads.  The messages are
// the smallest the service handles, so per-request transport and
// protocol cost dominates: added handling on that path shows here
// instead of being diluted by analysis time.  All its threads share one
// CPU (see run_wire_small).
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "base/net.h"
#include "base/rng.h"
#include "bench.h"
#include "model/generators.h"
#include "model/serialize.h"
#include "service/loopback.h"
#include "service/protocol.h"
#include "service/socket_transport.h"
#include "trajectory/analysis.h"
#include "trajectory/batch.h"

namespace tfa::bench {
namespace {

using service::json_string;

constexpr std::size_t kConns = 2;
constexpr std::size_t kCycle = 40;
/// Responses per connection covered by the digest.
constexpr std::size_t kDigestResponses = 200;
/// Memo-miss analyzes of the replay that also get the direct layer calls
/// timed (a bound on the replay's length; the rest are timed end to end).
constexpr std::size_t kLayerReplays = 200;

model::FlowSet session_set(std::uint64_t seed, std::size_t conn) {
  Rng rng = Rng::stream(seed, conn);
  model::RandomConfig rc;
  rc.flows = 24;
  rc.nodes = 6;
  rc.max_path = 2;
  return model::make_random(rc, rng);
}

enum class Kind { kAnalyze, kMetrics, kAdd, kRemove };

/// Position k of the per-connection cycle of 40: analyzes, except two
/// metrics reads, one add_flow and one remove_flow.  Only the analyze
/// after each write misses the memo, so 34 of 36 analyzes are memo hits
/// and the cycle's time goes mostly to transport and protocol handling.
/// (Every engine run also grows the session's telemetry, so the process's
/// memory follows the number of misses: keeping them rare keeps
/// peak_rss_mb from tracking the request rate.)
Kind kind_at(std::size_t k) {
  switch (k % kCycle) {
    case 2:
    case 22: return Kind::kMetrics;
    case 10: return Kind::kAdd;
    case 30: return Kind::kRemove;
    default: return Kind::kAnalyze;
  }
}

/// One client connection and the state of its session as the client
/// knows it.
struct Conn {
  net::UniqueFd fd;
  std::string inbox;
  std::string session;
  model::FlowSet base;
  std::optional<model::SporadicFlow> extra;  ///< Added and not yet removed.
  std::size_t sent = 0;      ///< Requests of the timed loop sent so far.
  std::size_t answered = 0;  ///< Their responses received.
  std::int64_t sent_ns = 0;
  Kind pending = Kind::kAnalyze;
  Digest digest;
  /// Requests of the traced phase, for the replay: kind, line, and the
  /// flow an add_flow adds or a remove_flow removes.
  struct Sent {
    Kind kind;
    std::string line;
    model::SporadicFlow flow;
  };
  std::vector<Sent> traced;

  [[nodiscard]] model::FlowSet mirror() const {
    model::FlowSet set = base;
    if (extra) set.add(*extra);
    return set;
  }

  model::SporadicFlow added_flow() const {
    return model::SporadicFlow(session + "_x" + std::to_string(sent),
                               model::Path{0, 1}, 400, 1, 0, 100'000);
  }

  std::string line(Kind kind) const {
    switch (kind) {
      case Kind::kMetrics:
        return R"({"op":"metrics"})";
      case Kind::kAdd:
        return R"({"op":"add_flow","session":)" + json_string(session) +
               ",\"flow\":" + json_string(flow_line(added_flow())) + "}";
      case Kind::kRemove:
        return R"({"op":"remove_flow","session":)" + json_string(session) +
               ",\"name\":" + json_string(extra ? extra->name() : "") + "}";
      case Kind::kAnalyze:
        break;
    }
    return R"({"op":"analyze","session":)" + json_string(session) + "}";
  }
};

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Blocking read of one response line (set-up only).
std::optional<std::string> read_line(Conn& c) {
  for (;;) {
    const std::size_t nl = c.inbox.find('\n');
    if (nl != std::string::npos) {
      std::string line = c.inbox.substr(0, nl);
      c.inbox.erase(0, nl + 1);
      return line;
    }
    char buf[65536];
    const ssize_t n = ::recv(c.fd.get(), buf, sizeof buf, 0);
    if (n <= 0) return std::nullopt;
    c.inbox.append(buf, static_cast<std::size_t>(n));
  }
}

struct Server {
  std::unique_ptr<service::SocketServer> server;
  std::array<Conn, kConns> conns;
};

/// Starts a server, connects both clients, loads their sessions and runs
/// the first analyze of each (the memo fill).  Empty string on success.
std::string start(Server& s, std::uint64_t seed) {
  s.server = std::make_unique<service::SocketServer>(
      service::SocketServerConfig{});
  std::string error;
  if (!s.server->start(&error)) return "server start: " + error;
  for (std::size_t c = 0; c < kConns; ++c) {
    Conn& conn = s.conns[c];
    conn = Conn{};
    conn.fd = net::connect_tcp(s.server->port(), &error);
    if (!conn.fd) return "connect: " + error;
    conn.session = "s" + std::to_string(c);
    conn.base = session_set(seed, c);
    const std::string text = model::serialize_flow_set(conn.base);
    for (const std::string& line :
         {R"({"op":"load_network","session":)" + json_string(conn.session) +
              ",\"text\":" + json_string(text) + "}",
          conn.line(Kind::kAnalyze)}) {
      if (!send_all(conn.fd.get(), line + "\n")) return "send failed";
      const auto response = read_line(conn);
      if (!response || !response_ok(*response))
        return "set-up request failed: " + response.value_or("(closed)");
    }
  }
  return {};
}

/// Counters of the timed loop.
struct Loop {
  std::vector<double> rtt_ms;
  std::size_t errors = 0;
  std::size_t analyzes = 0, memo_hits = 0, bytes = 0;
  std::size_t lost = 0;  ///< Connections that closed under the client.
  std::optional<std::pair<model::FlowSet, std::string>> miss_sample;
};

/// One closed-loop phase over both connections: each sends its next
/// request as soon as its previous response is in.
double run_phase(Server& s, double seconds, Tracer* tracer, Loop& loop,
                 std::uint64_t& op) {
  const std::int64_t start_ns = now_ns();
  const auto deadline = start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::array<bool, kConns> busy{};
  std::array<int, kConns> spans{};
  const auto send_next = [&](std::size_t c) {
    Conn& conn = s.conns[c];
    conn.pending = kind_at(conn.sent);
    std::string line = conn.line(conn.pending);
    if (conn.pending == Kind::kAdd) conn.extra = conn.added_flow();
    if (tracer != nullptr) {
      spans[c] = tracer->begin("transport.roundtrip", op++);
      conn.traced.push_back({conn.pending, line,
                             conn.extra.value_or(model::SporadicFlow{})});
    }
    conn.sent_ns = now_ns();
    ++conn.sent;
    busy[c] = send_all(conn.fd.get(), line + "\n");
    if (!busy[c]) ++loop.lost;
  };
  for (std::size_t c = 0; c < kConns; ++c) send_next(c);

  while (busy[0] || busy[1]) {
    std::array<pollfd, kConns> fds{};
    for (std::size_t c = 0; c < kConns; ++c)
      fds[c] = {busy[c] ? s.conns[c].fd.get() : -1, POLLIN, 0};
    if (::poll(fds.data(), kConns, 5000) <= 0) {
      ++loop.lost;
      break;
    }
    for (std::size_t c = 0; c < kConns; ++c) {
      if (fds[c].revents == 0) continue;
      Conn& conn = s.conns[c];
      char buf[65536];
      const ssize_t n = ::recv(conn.fd.get(), buf, sizeof buf, MSG_DONTWAIT);
      if (n <= 0) {
        busy[c] = false;
        ++loop.lost;
        continue;
      }
      conn.inbox.append(buf, static_cast<std::size_t>(n));
      const std::size_t nl = conn.inbox.find('\n');
      if (nl == std::string::npos) continue;
      const std::int64_t now = now_ns();
      if (tracer != nullptr) tracer->end(spans[c]);
      const std::string response = conn.inbox.substr(0, nl);
      conn.inbox.erase(0, nl + 1);
      loop.rtt_ms.push_back(ms_between(conn.sent_ns, now));
      loop.bytes += response.size();
      const bool ok = response_ok(response);
      if (!ok) ++loop.errors;
      // Metrics bodies list every session of the shared store, whose
      // counters depend on how the two connections interleave: only their
      // success enters the digest.
      if (conn.answered < kDigestResponses)
        conn.digest.add(conn.pending == Kind::kMetrics ? (ok ? "ok" : "error")
                                                       : response);
      ++conn.answered;
      if (conn.pending == Kind::kAnalyze) {
        ++loop.analyzes;
        const bool hit = response.find("\"cached\":true") != std::string::npos;
        loop.memo_hits += hit ? 1 : 0;
        if (!hit && c == 0 && conn.extra && !loop.miss_sample)
          loop.miss_sample.emplace(conn.mirror(), response);
      }
      if (conn.pending == Kind::kRemove) conn.extra.reset();
      busy[c] = false;
      if (now < deadline || conn.answered < kDigestResponses) send_next(c);
    }
  }
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Replays the traced phase's lines on an in-process Loopback started
/// from the same session state, timing each request and the direct layer
/// calls it makes.
void replay(const Server& s, const std::array<model::FlowSet, kConns>& start,
            Tracer& tracer, Report& report) {
  service::Loopback lb;
  std::vector<double> loopback_ms, overhead_ms;
  std::vector<LayerSample> layers;
  std::uint64_t op = 1u << 30;
  for (std::size_t c = 0; c < kConns; ++c) {
    const Conn& conn = s.conns[c];
    model::FlowSet set = start[c];
    trajectory::AnalysisCache cache;
    (void)lb.request(R"({"op":"load_network","session":)" +
                     json_string(conn.session) + ",\"text\":" +
                     json_string(model::serialize_flow_set(set)) + "}");
    (void)lb.request(conn.line(Kind::kAnalyze));
    (void)trajectory::reanalyze_with(set, cache, {});
    for (const Conn::Sent& sent : conn.traced) {
      const int span = tracer.begin("service.request", op);
      const std::string response = lb.request(sent.line);
      const double ms = tracer.end(span);
      loopback_ms.push_back(ms);
      tracer.time("service.parse_request", op, span,
                  [&] { (void)service::parse_request(sent.line); });
      // The direct layer calls the same request makes: none for memo hits
      // and metrics reads.
      double direct = 0;
      if (sent.kind == Kind::kAdd) {
        set.add(sent.flow);
        direct = tracer.time("model.validate", op, span,
                             [&] { (void)set.validate(); });
      } else if (sent.kind == Kind::kRemove) {
        model::FlowSet next(set.network());
        for (const model::SporadicFlow& f : set.flows())
          if (f.name() != sent.flow.name()) next.add(f);
        set = std::move(next);
      } else if (sent.kind == Kind::kAnalyze &&
                 response.find("\"cached\":false") != std::string::npos) {
        if (layers.size() == kLayerReplays) {
          ++op;
          continue;  // a miss whose direct calls are not replayed
        }
        direct = tracer.time("trajectory.reanalyze", op, span, [&] {
          (void)trajectory::reanalyze_with(set, cache, {});
        });
        trajectory::Result r;
        layers.push_back(traced_analyze(tracer, op, set, {}, &r));
      }
      overhead_ms.push_back(ms - direct);
      ++op;
    }
  }
  if (!layers.empty()) add_layer_metrics(report, layers);
  report.add("trajectory.reanalyze_ms",
             median(tracer.durations_ms("trajectory.reanalyze")), "ms");
  report.add("service.parse_request_us",
             1e3 * median(tracer.durations_ms("service.parse_request")), "us");
  report.add("service.overhead_ms", median(overhead_ms), "ms");
  report.add("transport.overhead_us",
             1e3 * (median(tracer.durations_ms("transport.roundtrip")) -
                    median(loopback_ms)),
             "us");
}

}  // namespace

void run_wire_small(const Options& opt, Report& report, Tracer* tracer) {
  // Client and server threads all run on the CPU this process starts on.
  // On a virtual machine a wakeup that crosses vCPUs costs tens of
  // microseconds and swings with the host's load; on one CPU a round trip
  // is the handling work itself, which is what this workload is meant to
  // expose.  The cost: the two executors never run at the same time, so a
  // change that serialises them does not show here.  (Pinned to two CPUs,
  // the throughput's quartile spread over ten seeds was 0.13 in one series
  // and 0.49 in the next, as the host slowed.)  The threads created below
  // inherit the mask.
  const int here = sched_getcpu();
  if (here >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(here, &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

  // ---- set-up: server up, clients connected, sessions loaded and
  // analysed once.  It is repeated on a second server between the timed
  // slices below; the first server is the one the timed requests go to.
  Server s;
  std::string error;
  SetupSampler setup;
  setup.run([&] { error = start(s, opt.seed); });
  if (!error.empty()) {
    report.check("setup", false, error);
    return;
  }
  const auto restart = [&] {
    std::optional<Server> other;
    setup.run([&] {
      other.emplace();
      const std::string e = start(*other, opt.seed);
      if (error.empty()) error = e;
    });
  };
  // A timed phase runs in slices of a second, which end with both
  // connections idle; the set-up is repeated between slices, outside the
  // wall time.  Returns the phase's wall time.
  const auto timed = [&](double seconds, Tracer* t, Loop& l, std::uint64_t& op) {
    double wall = 0;
    for (double left = seconds; left > 0; left -= 1.0) {
      wall += run_phase(s, std::min(left, 1.0), t, l, op);
      if (left > 1.0) restart();
    }
    return wall;
  };

  Loop loop;
  std::uint64_t op = 0;
  if (tracer == nullptr) {
    const double wall = timed(opt.seconds, nullptr, loop, op);
    add_latency(report, "latency", loop.rtt_ms);
    report.add("throughput_ops_s",
               static_cast<double>(loop.rtt_ms.size()) / wall, "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    add_attribution(report, s.conns[0].base, {});
  } else {
    (void)timed(opt.seconds / 3, nullptr, loop, op);
    const double plain_p50 = median(loop.rtt_ms);
    std::array<model::FlowSet, kConns> at_start;
    for (std::size_t c = 0; c < kConns; ++c) at_start[c] = s.conns[c].mirror();
    Loop traced;
    (void)timed(opt.seconds * 2 / 3, tracer, traced, op);
    replay(s, at_start, *tracer, report);
    for (std::size_t c = 0; c < kConns; ++c) {
      const std::string text = model::serialize_flow_set(s.conns[c].base);
      tracer->time("model.parse", c, -1,
                   [&] { (void)model::parse_flow_set(text); });
    }
    report.add("model.parse_ms", median(tracer->durations_ms("model.parse")), "ms");
    report.add("service.memo_hit_ratio",
               static_cast<double>(loop.memo_hits + traced.memo_hits) /
                   static_cast<double>(loop.analyzes + traced.analyzes),
               "ratio");
    report.add("service.response_bytes",
               static_cast<double>(loop.bytes + traced.bytes) /
                   static_cast<double>(loop.rtt_ms.size() + traced.rtt_ms.size()),
               "bytes");
    report.add("transport.accepted",
               static_cast<double>(s.server->connections_accepted()), "count");
    report.add("transport.shed",
               static_cast<double>(s.server->connections_shed()), "count");
    report.add("transport.requests",
               static_cast<double>(s.server->requests_served()), "count");
    report.add("trace.overhead_ratio", median(traced.rtt_ms) / plain_p50,
               "ratio");
    loop.errors += traced.errors;
    loop.lost += traced.lost;
    loop.rtt_ms.insert(loop.rtt_ms.end(), traced.rtt_ms.begin(),
                       traced.rtt_ms.end());
  }
  report.attempted += loop.rtt_ms.size() + loop.lost;
  s.server->stop();
  report.add("setup_s", setup.median_s(), "s");
  report.note("setup_repetitions", std::to_string(setup.count()));

  // ---- correctness, outside the timed region.
  report.check("setup", error.empty(), error);
  Digest all;
  for (const Conn& c : s.conns) all.add(static_cast<std::int64_t>(c.digest.value()));
  report.digest = all.hex();
  report.check_count("requests_succeeded", loop.errors,
                     "error envelopes in the request stream");
  report.check_count("connections_held", loop.lost,
                     "connections refused, closed or stalled");
  if (loop.miss_sample) {
    const auto& [set, response] = *loop.miss_sample;
    const trajectory::Result r = trajectory::analyze(set, {});
    const std::string diff = compare_wire_bounds(response, set, r);
    report.check("wire_equals_in_process", diff.empty(), diff);
  } else {
    report.check("wire_equals_in_process", false, "no memo miss was sampled");
  }
  const model::FlowSet& base = s.conns[0].base;
  const trajectory::Result r = trajectory::analyze(base, {});
  const std::string sim = sim_check(base, r, false, opt.seed);
  report.check("sim_within_bounds", sim.empty(), sim);
}

}  // namespace tfa::bench
