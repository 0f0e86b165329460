// Byte-stream → request-line framing for the socket transport.
//
// A connection delivers bytes in arbitrary chunks: one request per read,
// twenty pipelined requests per read, or one byte at a time. LineFramer
// reassembles newline-delimited request lines incrementally and enforces
// the one-response-per-line protocol contract at the byte level:
//
//  - A line is every byte up to (not including) '\n'; one trailing '\r' is
//    stripped so CRLF clients (telnet, netcat on some platforms) work.
//  - Empty lines are still lines: they produce a kLine event (the protocol
//    layer answers them with an ERR, keeping request/response counts equal).
//  - A line that exceeds `max_line` bytes before its '\n' arrives produces
//    exactly one kOversize event the moment the limit is crossed, and the
//    framer discards bytes until the terminating '\n' — the transport can
//    answer with one ERR line immediately and the connection stays usable
//    for the next request. The discarded line produces no kLine event.
//  - Bytes after the last '\n' stay buffered until more input arrives; a
//    connection that closes mid-line simply abandons them (no response is
//    owed for a line that was never completed).
//
// The framer is deliberately independent of file descriptors so the
// exhaustive split-point tests (tests/serve_framing_test.cc) can replay a
// golden byte stream at every possible chunk boundary.

#ifndef LC_SERVE_NET_FRAMING_H_
#define LC_SERVE_NET_FRAMING_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace lc {
namespace serve {
namespace net {

class LineFramer {
 public:
  struct Event {
    enum class Kind {
      kLine,      // `line` holds one complete request line ('\n'/'\r' stripped).
      kOversize,  // The current line crossed max_line; it will be discarded.
    };
    Kind kind = Kind::kLine;
    std::string line;
  };

  /// `max_line` bounds the bytes buffered for one line (excluding the
  /// terminator). Must be positive.
  explicit LineFramer(size_t max_line);

  /// Consumes one chunk of the byte stream, appending every framing event
  /// it completes to `*events` in stream order. Feeding the same stream in
  /// different chunkings yields the identical event sequence.
  void Feed(std::string_view bytes, std::vector<Event>* events);

  /// Bytes buffered for the (incomplete) current line.
  size_t buffered() const { return partial_.size(); }

  /// True while skipping the remainder of an oversize line.
  bool discarding() const { return discarding_; }

 private:
  const size_t max_line_;
  std::string partial_;
  bool discarding_ = false;
};

}  // namespace net
}  // namespace serve
}  // namespace lc

#endif  // LC_SERVE_NET_FRAMING_H_
