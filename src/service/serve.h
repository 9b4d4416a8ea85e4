// Stream transport: pump JSON-lines requests from an std::istream into a
// Service and its responses back out — what `tfa_tool serve` runs over
// stdin/stdout.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "service/service.h"

namespace tfa::service {

/// Outcome of one serve loop.
struct ServeResult {
  bool shutdown = false;       ///< A `shutdown` request was served.
  std::uint64_t requests = 0;  ///< Non-blank lines submitted.
};

/// Reads request lines from `in` until EOF, writing each response line
/// (newline-terminated, flushed) to `out` as soon as the line's newline
/// arrives.  Lines are cut by the LineFramer the socket transport uses
/// too (service/framer.h): blank lines consume no sequence number, and a
/// line longer than ServiceConfig::max_request_bytes is never buffered
/// whole but answered with the structured `oversized` error envelope,
/// leaving the stream line-synchronised for the next request.  EOF after
/// `shutdown` is the graceful-drain exit; plain EOF drains the same way.
ServeResult serve_stream(std::istream& in, std::ostream& out,
                         Service& service);

}  // namespace tfa::service
