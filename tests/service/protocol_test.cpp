// Golden tests of the wire protocol (service/protocol.h): request
// parsing, the byte-exact response envelopes, duration encoding, id
// echo, and the analyze path answering bit-identically to an in-process
// trajectory::analyze() of the same set.
#include <gtest/gtest.h>

#include <string>

#include "base/json.h"
#include "model/paper_example.h"
#include "provision/planner.h"
#include "service/loopback.h"
#include "service/protocol.h"
#include "service_test_util.h"
#include "trajectory/analysis.h"

namespace tfa::service {
namespace {

TEST(Protocol, ParsesEveryOp) {
  const struct {
    const char* line;
    Op op;
  } kCases[] = {
      {R"({"op":"load_network","session":"s","text":"network 2 1 1"})",
       Op::kLoadNetwork},
      {R"({"op":"add_flow","session":"s","flow":"flow f EF 9 0 9 path 0 1 costs 1"})",
       Op::kAddFlow},
      {R"({"op":"remove_flow","session":"s","name":"f"})", Op::kRemoveFlow},
      {R"({"op":"analyze","session":"s"})", Op::kAnalyze},
      {R"({"op":"admit","session":"s","flow":"flow f EF 9 0 9 path 0 1 costs 1"})",
       Op::kAdmit},
      {R"({"op":"snapshot","session":"s"})", Op::kSnapshot},
      {R"({"op":"provision","session":"s"})", Op::kProvision},
      {R"({"op":"provision","session":"s","capacity":64,"flow":"flow p EF 9 0 9 path 0 costs 1"})",
       Op::kProvision},
      {R"({"op":"metrics"})", Op::kMetrics},
      {R"({"op":"statsz"})", Op::kStatsz},
      {R"({"op":"statsz","session":"s"})", Op::kStatsz},
      {R"({"op":"flush"})", Op::kFlush},
      {R"({"op":"shutdown"})", Op::kShutdown},
  };
  for (const auto& c : kCases) {
    const ParsedRequest p = parse_request(c.line);
    ASSERT_TRUE(p.ok) << c.line << ": " << p.error.message;
    EXPECT_EQ(p.request.op, c.op) << c.line;
    EXPECT_STREQ(to_string(p.request.op), p.op_text.c_str());
  }
}

TEST(Protocol, AnalyzeOptionsAndDeadline) {
  const ParsedRequest p = parse_request(
      R"({"op":"analyze","session":"s","ef_mode":true,"smax":"completion","deadline_ms":250,"id":"rq-1"})");
  ASSERT_TRUE(p.ok) << p.error.message;
  EXPECT_TRUE(p.request.analyze.ef_mode);
  EXPECT_EQ(p.request.analyze.smax, trajectory::SmaxSemantics::kCompletion);
  ASSERT_TRUE(p.request.deadline_ms.has_value());
  EXPECT_EQ(*p.request.deadline_ms, 250);
  EXPECT_EQ(p.id_json, "\"rq-1\"");
}

TEST(Protocol, IdEchoFormats) {
  EXPECT_EQ(parse_request(R"({"op":"flush","id":"a\"b"})").id_json,
            "\"a\\\"b\"");
  EXPECT_EQ(parse_request(R"({"op":"flush","id":42})").id_json, "42");
  EXPECT_EQ(parse_request(R"({"op":"flush"})").id_json, "");
  // Non-integral / non-string ids are rejected, but still parse far
  // enough to identify the op.
  const ParsedRequest p = parse_request(R"({"op":"flush","id":1.5})");
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.error.code, "bad_request");
}

TEST(Protocol, DurationEncoding) {
  EXPECT_EQ(json_duration(0), "0");
  EXPECT_EQ(json_duration(1234), "1234");
  EXPECT_EQ(json_duration(kInfiniteDuration), "null");
  EXPECT_EQ(json_duration(kInfiniteDuration + 7), "null");
}

TEST(Protocol, EnvelopesAreByteExact) {
  EXPECT_EQ(ok_envelope(3, "7", "flush", "t3", "{\"flushed\":0}"),
            R"({"seq":3,"id":7,"ok":true,"op":"flush","trace":"t3","result":{"flushed":0}})");
  // An empty trace omits the field entirely (the shed envelope's case).
  EXPECT_EQ(ok_envelope(3, "7", "flush", "", "{\"flushed\":0}"),
            R"({"seq":3,"id":7,"ok":true,"op":"flush","result":{"flushed":0}})");
  WireError e;
  e.code = "parse_error";
  e.message = "unterminated string";
  e.offset = 14;
  EXPECT_EQ(
      error_envelope(9, "", "", "t9", e),
      R"({"seq":9,"ok":false,"op":null,"trace":"t9","error":{"code":"parse_error","message":"unterminated string","offset":14}})");
  WireError f;
  f.code = "bad_flow_set";
  f.message = "line 2: oops";
  f.line = 2;
  EXPECT_EQ(
      error_envelope(1, "\"x\"", "load_network", "req-7", f),
      R"({"seq":1,"id":"x","ok":false,"op":"load_network","trace":"req-7","error":{"code":"bad_flow_set","message":"line 2: oops","line":2}})");
}

TEST(Protocol, GoldenTranscript) {
  Loopback lb(test_config());
  EXPECT_EQ(
      lb.request(load_line("net", "network 3 1 1\n"
                                  "flow a EF 40 0 40 path 0 1 costs 2\n")),
      R"({"seq":1,"ok":true,"op":"load_network","trace":"t1","result":{"session":"net","flows":1,"nodes":3}})");
  EXPECT_EQ(
      lb.request(R"({"op":"analyze","session":"net","id":1})"),
      R"({"seq":2,"id":1,"ok":true,"op":"analyze","trace":"t2","result":{"cached":false,)"
      R"("all_schedulable":true,"converged":true,"bounds":[{"flow":"a",)"
      R"("response":5,"jitter":0,"busy_period":2,"delta":0,)"
      R"("schedulable":true}],"stats":{"smax_passes":1,"cache_hits":0,)"
      R"("cache_misses":0,"warm_seeded":0}}})");
  EXPECT_EQ(
      lb.request(R"({"op":"flush"})"),
      R"({"seq":3,"ok":true,"op":"flush","trace":"t3","result":{"flushed":0}})");
  // A client-supplied trace_id is echoed verbatim instead of the
  // generated one.
  EXPECT_EQ(
      lb.request(R"({"op":"shutdown","trace_id":"bye-1"})"),
      R"({"seq":4,"ok":true,"op":"shutdown","trace":"bye-1","result":{"sessions":1,"requests":4}})");
}

/// The analyze memo is keyed by the analysis options alone, so it must
/// follow every mutation of the set: the next analyze runs the engine
/// ("cached":false) after each mutation or option change, and answers
/// from the memo ("cached":true) after requests that leave the set alone.
TEST(Protocol, AnalyzeMemoFollowsEveryMutationAndOptionChange) {
  Loopback lb(test_config());
  const auto send = [&](const std::string& line) {
    const std::string r = lb.request(line);
    EXPECT_NE(r.find(R"("ok":true)"), std::string::npos) << line << "\n" << r;
    return r;
  };
  const auto cached = [&](const std::string& analyze) {
    return send(analyze).find(R"("cached":true)") != std::string::npos;
  };
  const std::string plain = analyze_line("p");
  const std::string ef = analyze_line("p", /*ef_mode=*/true);
  const std::string completion =
      R"({"op":"analyze","session":"p","smax":"completion"})";
  (void)send(load_line("p", paper_text()));
  EXPECT_FALSE(cached(plain));
  EXPECT_TRUE(cached(plain));

  const std::string admit_ok =
      R"({"op":"admit","session":"p","flow":"flow side EF 36 0 200 path 0 11 costs 1"})";
  const std::string admit_late =
      R"({"op":"admit","session":"p","flow":"flow late EF 36 0 5 path 1 3 4 5 costs 4"})";
  const std::string add =
      R"({"op":"add_flow","session":"p","flow":"flow extra EF 36 0 200 path 11 0 costs 1"})";
  const std::string remove =
      R"({"op":"remove_flow","session":"p","name":"extra"})";
  for (const std::string& mutation : {add, remove, admit_ok}) {
    const std::string r = send(mutation);
    if (mutation == admit_ok) {
      EXPECT_NE(r.find(R"("admitted":true)"), std::string::npos) << r;
    }
    EXPECT_FALSE(cached(plain)) << mutation;
    EXPECT_TRUE(cached(plain)) << mutation;
  }
  for (const std::string& options : {ef, completion, plain}) {
    EXPECT_FALSE(cached(options)) << options;
    EXPECT_TRUE(cached(options)) << options;
  }

  EXPECT_NE(send(admit_late).find(R"("admitted":false)"), std::string::npos);
  EXPECT_TRUE(cached(plain));
  for (const char* keep : {R"({"op":"provision","session":"p"})",
                           R"({"op":"snapshot","session":"p"})",
                           R"({"op":"metrics"})"}) {
    (void)send(keep);
    EXPECT_TRUE(cached(plain)) << keep;
  }
}

/// The wire path must compute the exact in-process bounds (paper Table 2
/// set, both properties).
TEST(Protocol, AnalyzeMatchesInProcess) {
  for (const bool ef : {false, true}) {
    Loopback lb(test_config());
    ASSERT_TRUE(lb.request(load_line("p", paper_text())).find("\"ok\":true") !=
                std::string::npos);
    const std::string response = lb.request(analyze_line("p", ef));
    const auto doc = json_parse(response);
    ASSERT_TRUE(doc.has_value()) << response;
    const JsonValue* result = doc->find("result");
    ASSERT_NE(result, nullptr) << response;
    const JsonValue* bounds = result->find("bounds");
    ASSERT_NE(bounds, nullptr);

    trajectory::Config cfg;
    cfg.ef_mode = ef;
    const model::FlowSet set = model::paper_example();
    const trajectory::Result direct = trajectory::analyze(set, cfg);
    ASSERT_EQ(bounds->array.size(), direct.bounds.size());
    for (std::size_t i = 0; i < direct.bounds.size(); ++i) {
      const JsonValue& b = bounds->array[i];
      EXPECT_EQ(b.find("flow")->string,
                set.flow(direct.bounds[i].flow).name());
      EXPECT_EQ(static_cast<Duration>(b.find("response")->number),
                direct.bounds[i].response);
      EXPECT_EQ(b.find("schedulable")->boolean, direct.bounds[i].schedulable);
    }
  }
}

/// Every response the service emits must itself parse as strict JSON
/// (the emitters and the reader agree).
TEST(Protocol, ResponsesRoundTripThroughParser) {
  Loopback lb(test_config());
  const std::vector<std::string> lines = {
      load_line("p", paper_text()),
      analyze_line("p"),
      analyze_line("p", true),
      R"({"op":"snapshot","session":"p"})",
      R"({"op":"provision","session":"p"})",
      R"({"op":"provision","session":"p","capacity":50,"flow":"flow probe EF 100 0 900 path 1 3 costs 1"})",
      R"({"op":"metrics"})",
      R"(garbage)",
      R"({"op":"shutdown"})",
  };
  for (const std::string& response : lb.roundtrip(lines)) {
    JsonError err;
    EXPECT_TRUE(json_parse(response, &err).has_value())
        << response << "\n  at offset " << err.offset << ": " << err.message;
  }
}

/// The provision op must answer with the exact in-process plan: same
/// sizes, same binding attribution, same headroom count.
TEST(Protocol, ProvisionMatchesInProcess) {
  Loopback lb(test_config());
  ASSERT_NE(lb.request(load_line("p", paper_text())).find("\"ok\":true"),
            std::string::npos);
  const std::string response =
      lb.request(R"({"op":"provision","session":"p"})");
  const auto doc = json_parse(response);
  ASSERT_TRUE(doc.has_value()) << response;
  const JsonValue* result = doc->find("result");
  ASSERT_NE(result, nullptr) << response;

  const model::FlowSet set = model::paper_example();
  const provision::Plan direct = provision::plan(set);
  EXPECT_EQ(result->find("all_sizeable")->boolean, direct.all_sizeable);
  EXPECT_EQ(result->find("all_fit")->boolean, direct.all_fit);
  EXPECT_EQ(static_cast<Duration>(result->find("total_work")->number),
            direct.total_work);
  const JsonValue* nodes = result->find("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_EQ(nodes->array.size(), direct.nodes.size());
  for (std::size_t h = 0; h < direct.nodes.size(); ++h) {
    const JsonValue& n = nodes->array[h];
    const provision::NodeBuffer& nb = direct.nodes[h];
    EXPECT_EQ(static_cast<NodeId>(n.find("node")->number), nb.node);
    EXPECT_EQ(static_cast<Duration>(n.find("work")->number), nb.work);
    EXPECT_EQ(static_cast<Duration>(n.find("packets")->number), nb.packets);
    if (nb.binding_flow == kNoFlow) {
      EXPECT_EQ(n.find("binding_flow")->kind, JsonValue::Kind::kNull);
    } else {
      EXPECT_EQ(n.find("binding_flow")->string,
                set.flow(nb.binding_flow).name());
    }
    EXPECT_EQ(static_cast<std::size_t>(n.find("binding_segment")->number),
              nb.binding_segment);
  }
  // Probe + capacity reports the headroom of the same what-if search.
  const std::string probe_line = "flow probe EF 100 0 900 path 1 3 costs 1";
  const std::string probed = lb.request(
      R"({"op":"provision","session":"p","capacity":60,"flow":")" +
      probe_line + R"("})");
  const auto pdoc = json_parse(probed);
  ASSERT_TRUE(pdoc.has_value()) << probed;
  const JsonValue* presult = pdoc->find("result");
  ASSERT_NE(presult, nullptr) << probed;
  const JsonValue* headroom = presult->find("headroom");
  ASSERT_NE(headroom, nullptr) << probed;
  const model::SporadicFlow probe("probe", model::Path{1, 3}, 100, 1, 0, 900,
                                  model::ServiceClass::kExpedited);
  provision::Config pcfg;
  pcfg.capacity = 60;
  EXPECT_EQ(static_cast<std::size_t>(headroom->number),
            provision::max_clones_within(set, probe, 60, pcfg));
}

}  // namespace
}  // namespace tfa::service
