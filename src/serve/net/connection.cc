#include "serve/net/connection.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"
#include "util/check.h"

namespace lc {
namespace serve {
namespace net {

namespace {

// Most responses one sendmsg gathers. Far below IOV_MAX; a flush with more
// queued responses simply loops.
constexpr size_t kMaxWriteIov = 64;

}  // namespace

Connection::Connection(int fd, EventLoop* loop, EstimatorServer* server,
                       size_t write_high_water, NetCounters* counters,
                       std::function<void(int fd)> on_close)
    : fd_(fd),
      loop_(loop),
      server_(server),
      write_high_water_(write_high_water),
      counters_(counters),
      on_close_(std::move(on_close)),
      framer_(kMaxRequestLineBytes),
      last_activity_(std::chrono::steady_clock::now()) {
  LC_CHECK_GE(fd, 0);
}

Connection::~Connection() {
  // Normal teardown goes through Close(); this only covers a connection
  // destroyed without ever being closed (server torn down mid-flight).
  if (!closed_) close(fd_);
}

Status Connection::Register() {
  loop_->AssertOnLoopThread();
  auto self = shared_from_this();
  // The handler pins the connection for the duration of each event, so a
  // Close() from inside OnEvent never frees the object under its own feet.
  return loop_->Watch(fd_, /*want_read=*/true, /*want_write=*/false,
                      [self](const PollEvent& event) { self->OnEvent(event); });
}

void Connection::OnEvent(const PollEvent& event) {
  loop_->AssertOnLoopThread();
  if (closed_) return;
  if (event.readable || event.error) {
    // An error event reads to the end, so every line that arrived before
    // the socket died is still answered.
    if (!ReadAndServe(/*until_drained=*/event.error)) return;
  }
  Flush();
  if (closed_) return;
  if (event.error && !read_eof_) {
    // Error with nothing readable and the reads still open: the socket is
    // dead (e.g. EPOLLHUP on a reset connection with an empty buffer).
    Close();
  }
}

bool Connection::ReadAndServe(bool until_drained) {
  if (read_eof_ || read_paused_) return true;
  char buffer[16384];
  std::vector<LineFramer::Event> events;
  std::vector<std::string> lines;
  do {
    ssize_t n;
    do {
      n = read(fd_, buffer, sizeof(buffer));
    } while (n < 0 && errno == EINTR);
    if (n == 0) {
      read_eof_ = true;  // Peer finished sending; answer what we owe.
      return true;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      Close();  // ECONNRESET and friends: nothing left to answer.
      return false;
    }
    last_activity_ = std::chrono::steady_clock::now();
    events.clear();
    framer_.Feed(std::string_view(buffer, static_cast<size_t>(n)), &events);
    for (LineFramer::Event& event : events) {
      if (event.kind == LineFramer::Event::Kind::kOversize) {
        // One ERR per oversize line, issued the moment the limit is
        // crossed, in its place among the responses.
        Serve(&lines);
        counters_->oversize_lines.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.status = RequestLineTooLong();
        QueueResponse(FormatResponse(response));
        continue;
      }
      counters_->lines_in.fetch_add(1, std::memory_order_relaxed);
      lines.push_back(std::move(event.line));
    }
    Serve(&lines);
    // Serving can engage backpressure (a flood of cache hits fills the
    // write buffer); a drain then stops framing more input.
    TryWrite();
    if (closed_) return false;
  } while (until_drained && !read_paused_);
  return true;
}

void Connection::Serve(std::vector<std::string>* lines) {
  if (lines->empty()) return;
  for (std::string& response : server_->HandleLines(*lines)) {
    QueueResponse(std::move(response));
  }
  lines->clear();
}

void Connection::QueueResponse(std::string&& response) {
  response.push_back('\n');
  pending_bytes_ += response.size();
  pending_out_.push_back(std::move(response));
  counters_->responses_out.fetch_add(1, std::memory_order_relaxed);
}

void Connection::Flush() {
  TryWrite();
  if (closed_) return;
  if (read_eof_ && pending_out_.empty()) {
    Close();  // Everything owed is on the wire and the peer is done.
    return;
  }
  UpdateInterest();
}

void Connection::TryWrite() {
  while (!pending_out_.empty()) {
    // Gather the queued responses into one vectorized send: no coalescing
    // copy, one syscall for the whole ready burst. sendmsg instead of
    // writev because only the msg-flavored calls take MSG_NOSIGNAL — a
    // peer that closed mid-response must surface as EPIPE, not kill the
    // process with SIGPIPE.
    struct iovec iov[kMaxWriteIov];
    size_t iov_count = 0;
    size_t skip = front_offset_;
    for (const std::string& chunk : pending_out_) {
      if (iov_count == kMaxWriteIov) break;
      iov[iov_count].iov_base = const_cast<char*>(chunk.data()) + skip;
      iov[iov_count].iov_len = chunk.size() - skip;
      skip = 0;
      ++iov_count;
    }
    struct msghdr message = {};
    message.msg_iov = iov;
    message.msg_iovlen = iov_count;
    // Counted before the call: an observer who already received the bytes
    // (the syscall-budget test) must never see the count lag the write.
    counters_->write_syscalls.fetch_add(1, std::memory_order_relaxed);
    ssize_t n;
    do {
      n = sendmsg(fd_, &message, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      last_activity_ = std::chrono::steady_clock::now();
      size_t written = static_cast<size_t>(n);
      while (written > 0) {
        const size_t front_left = pending_out_.front().size() - front_offset_;
        if (written < front_left) {
          front_offset_ += written;
          break;
        }
        written -= front_left;
        pending_bytes_ -= pending_out_.front().size();
        pending_out_.pop_front();
        front_offset_ = 0;
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    Close();  // EPIPE/ECONNRESET: the peer will never read these bytes.
    return;
  }

  const size_t backlog = pending_bytes_ - front_offset_;
  if (!read_paused_ && backlog > write_high_water_) {
    // Kernel buffer full and a high-water backlog on top: stop framing new
    // requests from this client until it drains what it already asked for.
    read_paused_ = true;
    counters_->read_pauses.fetch_add(1, std::memory_order_relaxed);
  } else if (read_paused_ && backlog <= write_high_water_ / 2) {
    read_paused_ = false;
  }
}

void Connection::UpdateInterest() {
  if (closed_) return;
  const bool want_read = !read_eof_ && !read_paused_;
  const bool want_write = !pending_out_.empty();
  if (want_write == want_write_ && want_read == want_read_) return;
  want_read_ = want_read;
  want_write_ = want_write;
  (void)loop_->Update(fd_, want_read, want_write);
}

void Connection::BeginDrain() {
  loop_->AssertOnLoopThread();
  if (closed_ || draining_) return;
  draining_ = true;
  // Lines the kernel already buffered were accepted: frame and serve them
  // now so each gets an answer (or the server's typed shutdown
  // rejection). Bytes of an incomplete trailing line are abandoned — no
  // response is owed for a line that never completed.
  read_paused_ = false;
  if (!ReadAndServe(/*until_drained=*/true)) return;
  read_eof_ = true;
  Flush();  // Closes immediately when nothing is pending.
}

void Connection::ForceClose() {
  loop_->AssertOnLoopThread();
  if (closed_) return;
  Close();
}

bool Connection::CloseIfIdle(std::chrono::steady_clock::time_point now,
                             std::chrono::milliseconds timeout) {
  loop_->AssertOnLoopThread();
  if (closed_) return false;
  if (!pending_out_.empty() || now - last_activity_ < timeout) return false;
  counters_->reaped_idle.fetch_add(1, std::memory_order_relaxed);
  Close();
  return true;
}

void Connection::Close() {
  loop_->AssertOnLoopThread();
  if (closed_) return;
  closed_ = true;
  loop_->Unwatch(fd_);
  close(fd_);
  counters_->closed.fetch_add(1, std::memory_order_relaxed);
  // May release the server's owning reference, so this stays last.
  if (on_close_) on_close_(fd_);
}

}  // namespace net
}  // namespace serve
}  // namespace lc
