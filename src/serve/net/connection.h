// One client connection of the socket transport: a non-blocking fd, a
// LineFramer reassembling request lines from the byte stream, and a
// gather-writing flusher with read-pausing backpressure.
//
// Serving: every complete line framed from one read(2) goes to
// EstimatorServer::HandleLines as one call on the loop thread, and the
// response lines are appended to the outgoing queue in request order — so
// every request line gets exactly one response line, in arrival order, and
// all of a connection's state is touched by its loop thread alone.
//
// Fairness: one readiness event serves at most one read buffer of lines.
// The poller is level-triggered, so bytes left in the kernel buffer are
// reported again on the next wakeup, after the loop's other connections
// had their turn — one flooding client cannot starve the rest of its loop.
//
// Write path: responses stay as the individual strings the server
// produced; TryWrite vectorizes them into one sendmsg(2) (sendmsg rather
// than writev(2), which cannot carry MSG_NOSIGNAL), so a pipelined burst
// of N responses costs one syscall and zero re-copies, not N of either.
//
// Threading: a connection is pinned to exactly one of the SocketServer's
// event loops for life (the loop passed to the constructor — for a unix
// connection that may be a peer loop it was handed off to, never loop 0's
// accept path again) and is used by that loop's thread only.
//
// Backpressure (see docs/ARCHITECTURE.md "Network transport"): when the
// kernel send buffer stops accepting bytes and the userspace write buffer
// crosses the high-water mark, the connection stops reading — no new lines
// are framed, so a client that refuses to read its responses cannot grow
// the output buffer without bound. Server overload works the same way: a
// busy loop reads no new lines, and the kernel socket buffers push back on
// the client.

#ifndef LC_SERVE_NET_CONNECTION_H_
#define LC_SERVE_NET_CONNECTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "serve/net/event_loop.h"
#include "serve/net/framing.h"
#include "util/thread_annotations.h"

namespace lc {
namespace serve {

class EstimatorServer;

namespace net {

/// Transport-level counters shared by all connections of one SocketServer
/// (relaxed atomics; a consistent-enough snapshot for reporting).
struct NetCounters {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> closed{0};
  std::atomic<uint64_t> reaped_idle{0};
  std::atomic<uint64_t> lines_in{0};        // Complete request lines framed.
  std::atomic<uint64_t> responses_out{0};   // Response lines queued to the wire.
  std::atomic<uint64_t> oversize_lines{0};  // Lines rejected by the framer.
  std::atomic<uint64_t> read_pauses{0};     // Backpressure engagements.
  // sendmsg(2) calls issued by connection writers (including short writes
  // and EAGAINs). responses_out / write_syscalls is the gather factor the
  // pipelining test asserts on.
  std::atomic<uint64_t> write_syscalls{0};
  // Unix-domain accepted fds posted from loop 0 to a peer loop (TCP shards
  // at the kernel via SO_REUSEPORT and never hands off).
  std::atomic<uint64_t> handoffs{0};
};

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Reads pause while the unsent output exceeds `write_high_water` and
  /// resume at half of it. `on_close` runs on the loop thread exactly
  /// once, after the fd is closed and unwatched — the server uses it to
  /// drop its map entry.
  Connection(int fd, EventLoop* loop, EstimatorServer* server,
             size_t write_high_water, NetCounters* counters,
             std::function<void(int fd)> on_close);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers with the loop; call once, on the loop thread.
  Status Register();

  /// Server shutdown: answer every line the kernel already buffered (those
  /// lines were accepted and are answered or typed-rejected), then stop
  /// reading; the connection closes itself once its responses flushed.
  /// Loop thread only.
  void BeginDrain();

  /// Immediate teardown (drain deadline, server destruction). Loop thread
  /// only.
  void ForceClose();

  /// Reap if the connection has been quiet for `timeout` and owes nothing.
  /// Returns true when it closed. Loop thread only.
  bool CloseIfIdle(std::chrono::steady_clock::time_point now,
                   std::chrono::milliseconds timeout);

  /// Loop thread only (closed_ is loop-affine); LC_ON_LOOP because the
  /// accessor's callers live outside the analyzed tree.
  bool closed() const LC_ON_LOOP { return closed_; }
  int fd() const { return fd_; }

 private:
  void OnEvent(const PollEvent& event);
  // Reads, frames and serves lines: one read(2) when `until_drained` is
  // false, otherwise until EAGAIN/EOF (or a backpressure pause). Returns
  // false when the connection closed itself (error path).
  bool ReadAndServe(bool until_drained);
  // Answers `lines` through the server and queues the responses.
  void Serve(std::vector<std::string>* lines);
  void QueueResponse(std::string&& response);
  // Writes what the kernel accepts, closes once the peer is done and
  // everything owed is on the wire, and refreshes the poll interest.
  void Flush();
  // Gather-writes pending_out_ with sendmsg until EAGAIN or empty.
  void TryWrite();
  void UpdateInterest();
  void Close();

  const int fd_;
  EventLoop* const loop_;
  EstimatorServer* const server_;
  const size_t write_high_water_;
  NetCounters* const counters_;
  std::function<void(int)> on_close_;

  LineFramer framer_ LC_LOOP_AFFINE(loop_);
  // Responses queued for the wire, in order, each kept as its own string
  // so TryWrite can gather-write them without a contiguous re-copy.
  std::deque<std::string> pending_out_ LC_LOOP_AFFINE(loop_);
  // Sent prefix of pending_out_.front().
  size_t front_offset_ LC_LOOP_AFFINE(loop_) = 0;
  // Total bytes across pending_out_.
  size_t pending_bytes_ LC_LOOP_AFFINE(loop_) = 0;

  bool closed_ LC_LOOP_AFFINE(loop_) = false;
  // Peer finished sending (or drain stopped reads).
  bool read_eof_ LC_LOOP_AFFINE(loop_) = false;
  // Backpressure: interest dropped, not EOF.
  bool read_paused_ LC_LOOP_AFFINE(loop_) = false;
  bool draining_ LC_LOOP_AFFINE(loop_) = false;
  // Current registered read/write interest.
  bool want_read_ LC_LOOP_AFFINE(loop_) = true;
  bool want_write_ LC_LOOP_AFFINE(loop_) = false;
  std::chrono::steady_clock::time_point last_activity_ LC_LOOP_AFFINE(loop_);
};

}  // namespace net
}  // namespace serve
}  // namespace lc

#endif  // LC_SERVE_NET_CONNECTION_H_
