#include "service/serve.h"

#include <istream>
#include <ostream>
#include <string_view>

#include "service/framer.h"

namespace tfa::service {

ServeResult serve_stream(std::istream& in, std::ostream& out,
                         Service& service) {
  ServeResult result;
  LineFramer framer(service.config().max_request_bytes);
  const auto answer = [&](const Frame& f) {
    out << (f.oversized > 0 ? service.submit_oversized(f.oversized)
                            : service.submit(f.line))
        << '\n';
    out.flush();
    ++result.requests;
  };
  // istream::getline stops at each newline, so a line is answered as
  // soon as it arrives; a longer line comes through in buffer-sized
  // pieces (failbit without eofbit), which the framer joins or counts.
  char buf[4096];
  for (;;) {
    in.getline(buf, sizeof buf);
    const auto got = static_cast<std::size_t>(in.gcount());
    if (in.eof() || in.bad()) {
      framer.feed({buf, got}, answer);
      break;
    }
    if (in.fail()) {
      in.clear();
    } else {
      buf[got - 1] = '\n';  // getline consumed it and stored a NUL instead
    }
    framer.feed({buf, got}, answer);
  }
  framer.finish(answer);
  result.shutdown = service.draining();
  return result;
}

}  // namespace tfa::service
