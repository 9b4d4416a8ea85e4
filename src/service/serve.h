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
/// (newline-terminated) to `out`.  Blank lines are ignored and consume
/// no sequence number.  Lines are read through a *bounded* reader: one
/// longer than ServiceConfig::max_request_bytes is discarded up to its
/// newline (never buffered whole) and answered with the structured
/// `oversized` error envelope, leaving the stream line-synchronised for
/// the next request.  Each response is written as soon as its request
/// is served.  EOF after `shutdown` is the graceful-drain exit; plain
/// EOF drains the same way.
ServeResult serve_stream(std::istream& in, std::ostream& out,
                         Service& service);

}  // namespace tfa::service
