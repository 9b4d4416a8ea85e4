#include "service/serve.h"

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace tfa::service {

namespace {

bool blank(std::string_view line) noexcept {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

void drain(std::ostream& out, Service& service) {
  bool wrote = false;
  while (auto r = service.next_response()) {
    out << *r << '\n';
    wrote = true;
  }
  if (wrote) out.flush();
}

/// Bounded std::getline: reads one '\n'-terminated line into `line`,
/// buffering at most `limit + 1` bytes (the +1 absorbs a trailing
/// '\r').  A longer line is *discarded* byte-by-byte up to its newline
/// and reported through `*oversized` with its exact length, so a rogue
/// request costs bounded memory and the stream stays line-synchronised
/// — the next request parses normally.  Returns false at EOF with
/// nothing read.
bool bounded_getline(std::istream& in, std::size_t limit, std::string& line,
                     std::size_t* oversized) {
  line.clear();
  *oversized = 0;
  const std::size_t cap = limit + 1;
  std::size_t skipped = 0;
  bool last_cr = false;
  bool got_any = false;
  int ch;
  while ((ch = in.get()) != std::char_traits<char>::eof()) {
    got_any = true;
    if (ch == '\n') break;
    if (skipped > 0) {
      ++skipped;
      last_cr = ch == '\r';
      continue;
    }
    if (line.size() >= cap) {
      skipped = line.size() + 1;
      last_cr = ch == '\r';
      line.clear();
      continue;
    }
    line.push_back(static_cast<char>(ch));
  }
  if (skipped > 0) {
    // Exclude a trailing '\r', matching the length the stripped line
    // would have reported through the in-band gate.
    *oversized = skipped - (last_cr ? 1 : 0);
  } else if (!line.empty() && line.back() == '\r') {
    line.pop_back();
  }
  return got_any;
}

}  // namespace

ServeResult serve_stream(std::istream& in, std::ostream& out,
                         Service& service) {
  ServeResult result;
  const std::size_t limit = service.config().max_request_bytes;
  std::string line;
  std::size_t oversized = 0;
  while (bounded_getline(in, limit, line, &oversized)) {
    if (oversized > 0) {
      service.submit_oversized(oversized);
      ++result.requests;
    } else {
      if (blank(line)) continue;
      service.submit(line);
      ++result.requests;
    }
    drain(out, service);
  }
  result.shutdown = service.draining();
  return result;
}

}  // namespace tfa::service
