// Line framing of the JSON-lines protocol (docs/service.md): the one
// state machine that cuts a transport's byte stream into requests, used
// by serve_stream (stdio) and the socket transport alike, so both frame
// the same bytes into the same requests.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

namespace tfa::service {

/// One framed request: a request line, or — when `oversized` is
/// non-zero — the exact byte count of a line too long to accept.  `line`
/// views the framer's or the caller's bytes and is valid only while the
/// frame is being handled.
struct Frame {
  std::string_view line;
  std::size_t oversized = 0;
};

/// Cuts a byte stream, delivered in chunks of any size, into frames:
///   * a line ends at '\n', and one trailing '\r' is stripped;
///   * a line of only spaces, tabs and '\r' yields no frame;
///   * a line longer than `max_line_bytes` yields an oversized frame with
///     its length; at most max_line_bytes + 1 bytes of a line are ever
///     buffered (the +1 absorbs the '\r'), so a rogue line costs bounded
///     memory and the stream stays line-synchronised;
///   * finish() frames a final unterminated line at end of stream.
/// Every split of a stream into chunks yields the same frames.
class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line_bytes) : limit_(max_line_bytes) {}

  /// Frames `bytes`, calling `emit(const Frame&)` for each frame in order.
  template <typename Emit>
  void feed(std::string_view bytes, Emit&& emit) {
    while (!bytes.empty()) {
      const void* nl = std::memchr(bytes.data(), '\n', bytes.size());
      const std::size_t seg =
          nl != nullptr ? static_cast<std::size_t>(
                              static_cast<const char*>(nl) - bytes.data())
                        : bytes.size();
      const std::string_view head = bytes.substr(0, seg);
      bytes.remove_prefix(nl != nullptr ? seg + 1 : seg);
      if (!skipping_ && partial_.size() + seg > limit_ + 1) {
        // The line just outgrew the limit: stop buffering, start counting.
        skipping_ = true;
        skipped_ = partial_.size();
        partial_.clear();
      }
      if (skipping_) {
        skipped_ += seg;
        if (seg > 0) skipped_cr_ = head.back() == '\r';
        if (nl != nullptr) end_skipped(emit);
      } else if (nl == nullptr) {
        partial_.append(head);
      } else if (partial_.empty()) {
        end_line(head, emit);
      } else {
        partial_.append(head);
        end_line(partial_, emit);
        partial_.clear();
      }
    }
  }

  /// End of stream: frames the unterminated line, if any.
  template <typename Emit>
  void finish(Emit&& emit) {
    if (skipping_) {
      end_skipped(emit);
    } else if (!partial_.empty()) {
      end_line(partial_, emit);
      partial_.clear();
    }
  }

 private:
  template <typename Emit>
  void end_line(std::string_view line, Emit& emit) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) return;
    if (line.size() > limit_) {
      emit(Frame{{}, line.size()});
    } else {
      emit(Frame{line, 0});
    }
  }

  template <typename Emit>
  void end_skipped(Emit& emit) {
    // The length excludes a trailing '\r', like a buffered line's.
    emit(Frame{{}, skipped_ - (skipped_cr_ ? 1 : 0)});
    skipping_ = false;
    skipped_ = 0;
    skipped_cr_ = false;
  }

  std::size_t limit_;
  std::string partial_;     ///< Buffered head of the current line.
  bool skipping_ = false;   ///< Current line outgrew the limit.
  std::size_t skipped_ = 0;  ///< Its bytes so far, while skipping.
  bool skipped_cr_ = false;  ///< Its last byte so far was '\r'.
};

}  // namespace tfa::service
