// Tests of the one line framer (service/framer.h) that both transports
// share: fixed byte streams covering CRLF endings, blank and
// whitespace-only lines, lines at and just past the size limit, an
// oversized line whose '\r' and '\n' arrive in different chunks, and
// final unterminated lines.  Every split of each stream into two or
// three chunks must frame identically, and serve_stream must answer each
// stream with exactly the responses to those frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/framer.h"
#include "service/serve.h"
#include "service/service.h"
#include "service_test_util.h"

namespace tfa::service {
namespace {

/// The limit of every stream below: `{"op":"metrics"}` is exactly this
/// long and `{"op":"shutdown"}` one byte longer.
constexpr std::size_t kLimit = 16;
const std::string kAtLimit = R"({"op":"metrics"})";
const std::string kPastLimit = R"({"op":"shutdown"})";
const std::string kFlush = R"({"op":"flush"})";

/// A frame as a value: the line, or the oversized byte count.
using Framed = std::pair<std::string, std::size_t>;

Framed line(const std::string& l) { return {l, 0}; }
Framed oversized(std::size_t bytes) { return {"", bytes}; }

struct Case {
  const char* name;
  std::string stream;
  std::vector<Framed> frames;
};

std::vector<Case> cases() {
  return {
      {"crlf_blank_and_lone_cr",
       kFlush + "\r\n\r\n \t \r\n\n\r" + "\n" + kAtLimit + "\r\n" +
           "{\"op\":\"fl\rush\"}\n",
       {line(kFlush), line(kAtLimit), line("{\"op\":\"fl\rush\"}")}},
      {"at_and_past_the_limit",
       kAtLimit + "\n" + kAtLimit + "\r\n" + kPastLimit + "\n" + kPastLimit +
           "\r\n" + kFlush + "\n",
       {line(kAtLimit), line(kAtLimit), oversized(kLimit + 1),
        oversized(kLimit + 1), line(kFlush)}},
      {"whitespace_lines_at_and_past_the_buffer",
       // kLimit + 1 blanks fit the buffer and are skipped; kLimit + 4 do
       // not, so the line is answered oversized without being inspected.
       std::string(kLimit + 1, ' ') + "\n" + std::string(kLimit + 4, ' ') +
           "\n" + kFlush + "\n",
       {oversized(kLimit + 4), line(kFlush)}},
      {"oversized_crlf_then_request",
       std::string(25, 'x') + "\r\n" + kFlush + "\r\n",
       {oversized(25), line(kFlush)}},
      {"final_unterminated_line",
       kFlush + "\n" + kAtLimit,
       {line(kFlush), line(kAtLimit)}},
      {"final_unterminated_lone_cr", kFlush + "\n\r", {line(kFlush)}},
      {"final_oversized_line",
       kFlush + "\n" + std::string(30, 'y') + "\r",
       {line(kFlush), oversized(30)}},
  };
}

/// Frames `stream` fed in the chunks that `cuts` (ascending offsets)
/// delimit, then finishes it.
std::vector<Framed> frame(std::string_view stream,
                          const std::vector<std::size_t>& cuts) {
  LineFramer framer(kLimit);
  std::vector<Framed> out;
  const auto emit = [&](const Frame& f) {
    out.emplace_back(std::string(f.line), f.oversized);
  };
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    framer.feed(stream.substr(from, cut - from), emit);
    from = cut;
  }
  framer.feed(stream.substr(from), emit);
  framer.finish(emit);
  return out;
}

ServiceConfig framed_config() {
  ServiceConfig cfg = test_config();
  cfg.max_request_bytes = kLimit;
  return cfg;
}

/// The responses a fresh service gives to `frames`, newline-terminated.
std::string answers(const std::vector<Framed>& frames) {
  Service svc(framed_config());
  std::string out;
  for (const auto& [l, bytes] : frames) {
    out += bytes > 0 ? svc.submit_oversized(bytes) : svc.submit(l);
    out += '\n';
  }
  return out;
}

/// Cut 0 feeds the whole stream as one chunk; the cuts of
/// "oversized_crlf_then_request" and "at_and_past_the_limit" include the
/// ones that end a chunk with a line's '\r' and start the next with its
/// '\n'.
TEST(Framer, EverySingleAndDoubleCutFramesIdentically) {
  for (const Case& c : cases()) {
    const std::size_t n = c.stream.size();
    for (std::size_t i = 0; i <= n; ++i) {
      ASSERT_EQ(frame(c.stream, {i}), c.frames) << c.name << " cut " << i;
      for (std::size_t j = i; j <= n; ++j)
        ASSERT_EQ(frame(c.stream, {i, j}), c.frames)
            << c.name << " cuts " << i << "," << j;
    }
  }
}

TEST(Framer, ServeStreamAnswersEveryStreamLikeItsFrames) {
  for (const Case& c : cases()) {
    std::istringstream in(c.stream);
    std::ostringstream out;
    Service svc(framed_config());
    const ServeResult r = serve_stream(in, out, svc);
    EXPECT_EQ(r.requests, c.frames.size()) << c.name;
    EXPECT_EQ(out.str(), answers(c.frames)) << c.name;
  }
}

/// A line longer than serve_stream's read buffer reaches the framer in
/// pieces and is answered exactly like the same line submitted whole.
TEST(Framer, ServeStreamJoinsLinesLongerThanItsReadBuffer) {
  const std::string id(10'000, 'a');
  const std::string request =
      R"({"op":"flush","id":")" + id + R"("})";
  std::istringstream in(request + "\r\n" + kFlush + "\n");
  std::ostringstream out;
  Service svc(test_config());
  EXPECT_EQ(serve_stream(in, out, svc).requests, 2u);
  Service whole(test_config());
  std::string expected = whole.submit(request) + "\n";
  expected += whole.submit(kFlush) + "\n";
  EXPECT_EQ(out.str(), expected);
}

/// Hands out one chunk per underflow and, before each chunk after the
/// first, records how many response lines were already written.
class ChunkedInput : public std::streambuf {
 public:
  ChunkedInput(std::vector<std::string> chunks, const std::ostringstream* out)
      : chunks_(std::move(chunks)), out_(out) {}

  std::vector<std::size_t> answered_before_chunk;

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == chunks_.size()) return traits_type::eof();
    if (next_ > 0) {
      const std::string written = out_->str();
      answered_before_chunk.push_back(static_cast<std::size_t>(
          std::count(written.begin(), written.end(), '\n')));
    }
    std::string& c = chunks_[next_++];
    setg(c.data(), c.data(), c.data() + c.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> chunks_;
  const std::ostringstream* out_;
  std::size_t next_ = 0;
};

TEST(Framer, ServeStreamAnswersEachLineBeforeReadingTheNext) {
  std::ostringstream out;
  ChunkedInput input({kFlush + "\n", kAtLimit + "\n", "\n", kFlush + "\n"},
                     &out);
  std::istream in(&input);
  Service svc(test_config());
  EXPECT_EQ(serve_stream(in, out, svc).requests, 3u);
  EXPECT_EQ(input.answered_before_chunk,
            (std::vector<std::size_t>{1, 2, 2}));
}

}  // namespace
}  // namespace tfa::service
