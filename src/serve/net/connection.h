// One client connection of the socket transport: a non-blocking fd, a
// LineFramer reassembling request lines from the byte stream, an ordered
// response-slot queue bridging worker-lane completions back to the event
// loop, and a gather-writing flusher with read-pausing backpressure.
//
// Write path: ready responses stay as the individual strings the slots
// produced; TryWrite vectorizes them into one sendmsg(2) (sendmsg rather
// than writev(2), which cannot carry MSG_NOSIGNAL), so a pipelined burst
// of N responses costs one syscall and zero re-copies, not N of either.
// CompleteSlot coalesces its cross-thread flush wakeups the same way: a
// burst of lane completions posts a single FlushReady to the loop
// (flush_posted_), and that one flush drains the whole ready prefix.
//
// Pipelining contract: every completed request line gets exactly one
// response line, in arrival order. Requests may FINISH out of order (a
// cache hit completes inline while an earlier miss waits out a batching
// window on a lane), so each dispatched line claims a slot in a FIFO and
// the writer only flushes the longest ready prefix.
//
// Threading: a connection is pinned to exactly one of the SocketServer's
// event loops for life (the loop passed to the constructor — for a unix
// connection that may be a peer loop it was handed off to, never loop 0's
// accept path again). Everything except the slot queue is owned by that
// loop's thread. Completions fill their slot under the slot mutex from whatever
// thread the server ran the callback on (a lane, the retrain thread, or
// the loop itself) and then Post() a flush back to the loop — the callback
// holds a shared_ptr to the connection, so a connection that was closed
// under an in-flight completion stays alive (and inert: flushes after
// Close() are no-ops) until the last completion drops it. The loop itself
// is reached cross-thread only through a weak_ptr: a completion that
// outlives SocketServer::Shutdown (a connection force-closed at the drain
// deadline whose queue entry EstimatorServer::Shutdown resolves later)
// finds the loop expired and drops the flush instead of touching a
// destroyed EventLoop.
//
// Backpressure (composes with admission shedding, see
// docs/ARCHITECTURE.md "Network transport"): when the kernel send buffer
// stops accepting bytes and the userspace write buffer crosses the
// high-water mark, the connection stops reading — no new lines are framed,
// so a client that refuses to read its responses cannot grow the output
// buffer without bound. The admission queue's typed Unavailable shedding
// still answers each line that does get framed under overload.

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
#include "util/mutex.h"
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
  Connection(int fd, const std::shared_ptr<EventLoop>& loop,
             EstimatorServer* server, size_t write_high_water,
             NetCounters* counters, std::function<void(int fd)> on_close);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers with the loop; call once, on the loop thread.
  Status Register();

  /// Server shutdown: harvest whatever the kernel already buffered (those
  /// lines were accepted and will be answered or typed-rejected), then stop
  /// reading; the connection closes itself once every claimed slot has
  /// flushed. Loop thread only.
  void BeginDrain();

  /// Immediate teardown (drain deadline, server destruction). In-flight
  /// completions become no-ops. Loop thread only.
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
  struct Slot {
    bool ready = false;
    std::string text;  // Response line, '\n' already appended.
  };

  void OnEvent(const PollEvent& event);
  // Reads until EAGAIN/EOF and dispatches every completed line. Returns
  // false when the connection closed itself (error path).
  bool DrainSocketReads() LC_EXCLUDES(slots_mu_);
  void DispatchLine(std::string&& line) LC_EXCLUDES(slots_mu_);
  // The cross-thread entry point: runs on whatever thread resolved the
  // request (a lane, the retrain thread, or the loop itself).
  void CompleteSlot(uint64_t id, std::string&& response)
      LC_EXCLUDES(slots_mu_);
  // Moves the ready prefix of the slot queue onto the outgoing deque and
  // writes as much as the kernel accepts; manages EPOLLOUT interest, the
  // backpressure pause, and EOF-triggered teardown. Loop thread only
  // (CompleteSlot reaches it through EventLoop::Post).
  void FlushReady() LC_EXCLUDES(slots_mu_);
  // Gather-writes pending_out_ with sendmsg until EAGAIN or empty.
  void TryWrite();
  void UpdateInterest();
  void Close();
  size_t PendingSlots() const LC_EXCLUDES(slots_mu_);

  const int fd_;
  // Raw pointer for loop-thread ops (Watch/Update/Unwatch), which only run
  // while the loop thread is alive; the weak handle is for CompleteSlot's
  // cross-thread Post, which may fire after the owner released the loop.
  EventLoop* const loop_;
  const std::weak_ptr<EventLoop> weak_loop_;
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

  // The only cross-thread state: completions fill slots from lane threads.
  mutable Mutex slots_mu_;
  std::deque<Slot> slots_ LC_GUARDED_BY(slots_mu_);
  // Slot id of slots_.front().
  uint64_t head_id_ LC_GUARDED_BY(slots_mu_) = 0;
  uint64_t next_id_ LC_GUARDED_BY(slots_mu_) = 0;
  // True while a CompleteSlot-posted flush is on its way to the loop;
  // later completions in the same burst skip their Post and ride along.
  bool flush_posted_ LC_GUARDED_BY(slots_mu_) = false;
};

}  // namespace net
}  // namespace serve
}  // namespace lc

#endif  // LC_SERVE_NET_CONNECTION_H_
