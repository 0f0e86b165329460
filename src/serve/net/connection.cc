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

Connection::Connection(int fd, const std::shared_ptr<EventLoop>& loop,
                       EstimatorServer* server, size_t write_high_water,
                       NetCounters* counters,
                       std::function<void(int fd)> on_close)
    : fd_(fd),
      loop_(loop.get()),
      weak_loop_(loop),
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
    if (!DrainSocketReads()) return;  // Closed on a hard error.
  }
  FlushReady();
  if (closed_) return;
  if (event.writable) {
    TryWrite();
    if (closed_) return;
  }
  if (event.error && !read_eof_) {
    // Error with nothing readable and the reads still open: the socket is
    // dead (e.g. EPOLLHUP on a reset connection with an empty buffer).
    Close();
    return;
  }
  UpdateInterest();
}

bool Connection::DrainSocketReads() {
  if (read_eof_ || read_paused_) return true;
  char buffer[16384];
  while (true) {
    ssize_t n;
    do {
      n = read(fd_, buffer, sizeof(buffer));
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      last_activity_ = std::chrono::steady_clock::now();
      std::vector<LineFramer::Event> events;
      framer_.Feed(std::string_view(buffer, static_cast<size_t>(n)),
                   &events);
      for (LineFramer::Event& event : events) {
        if (event.kind == LineFramer::Event::Kind::kOversize) {
          // One ERR per oversize line, issued the moment the limit is
          // crossed; its slot keeps the response order aligned with the
          // request order even though the line never completed normally.
          counters_->oversize_lines.fetch_add(1, std::memory_order_relaxed);
          uint64_t id;
          {
            MutexLock lock(&slots_mu_);
            slots_.emplace_back();
            id = next_id_++;
          }
          Response response;
          response.status = RequestLineTooLong();
          CompleteSlot(id, FormatResponse(response));
          continue;
        }
        counters_->lines_in.fetch_add(1, std::memory_order_relaxed);
        DispatchLine(std::move(event.line));
      }
      // Dispatching can engage backpressure (a flood of inline cache hits
      // fills the write buffer); stop framing more input immediately.
      FlushReady();
      if (closed_) return false;
      if (read_paused_) return true;
      continue;
    }
    if (n == 0) {
      read_eof_ = true;  // Peer finished sending; answer what we owe.
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    Close();  // ECONNRESET and friends: nothing left to answer.
    return false;
  }
}

void Connection::DispatchLine(std::string&& line) {
  uint64_t id;
  {
    MutexLock lock(&slots_mu_);
    slots_.emplace_back();
    id = next_id_++;
  }
  auto self = shared_from_this();
  server_->HandleLineAsync(
      line, [self, id](std::string response) {
        self->CompleteSlot(id, std::move(response));
      });
}

void Connection::CompleteSlot(uint64_t id, std::string&& response) {
  {
    MutexLock lock(&slots_mu_);
    LC_CHECK_GE(id, head_id_);
    Slot& slot = slots_[static_cast<size_t>(id - head_id_)];
    slot.text = std::move(response);
    slot.text.push_back('\n');
    slot.ready = true;
    // One flush Post per burst: if a flush is already on its way to the
    // loop it will pick this slot up too (FlushReady clears the flag
    // before it harvests, so a completion landing mid-flush re-posts).
    if (flush_posted_) return;
    flush_posted_ = true;
  }
  // Hand the flush to the loop thread (completions run on lanes, the
  // retrain thread, or inline on the loop). The shared_ptr keeps the
  // connection alive; if it was closed meanwhile the flush is a no-op.
  // The weak handle is the lifetime seam against SocketServer::Shutdown:
  // a completion that fires after the owner released the loop fails the
  // lock and drops the flush (shutdown already force-closed the
  // connection); one that races the release pins the loop object so Post
  // runs on live memory and its exited_ seal discards the task.
  std::shared_ptr<EventLoop> loop = weak_loop_.lock();
  if (!loop) return;
  auto self = shared_from_this();
  loop->Post([self] { self->FlushReady(); });
}

void Connection::FlushReady() {
  loop_->AssertOnLoopThread();
  if (closed_) return;
  {
    MutexLock lock(&slots_mu_);
    flush_posted_ = false;  // Completions from here on need a fresh Post.
    while (!slots_.empty() && slots_.front().ready) {
      pending_bytes_ += slots_.front().text.size();
      pending_out_.push_back(std::move(slots_.front().text));
      counters_->responses_out.fetch_add(1, std::memory_order_relaxed);
      slots_.pop_front();
      ++head_id_;
    }
  }
  TryWrite();
  if (closed_) return;
  if (read_eof_ && pending_out_.empty() && PendingSlots() == 0) {
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
  // Lines the kernel already buffered were accepted: frame and dispatch
  // them now so each gets an answer (or the server's typed shutdown
  // rejection). Bytes of an incomplete trailing line are abandoned — no
  // response is owed for a line that never completed.
  read_paused_ = false;
  if (!DrainSocketReads()) return;
  read_eof_ = true;
  FlushReady();  // Closes immediately when nothing is pending.
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
  const bool owes = PendingSlots() > 0 || !pending_out_.empty();
  if (owes || now - last_activity_ < timeout) return false;
  counters_->reaped_idle.fetch_add(1, std::memory_order_relaxed);
  Close();
  return true;
}

size_t Connection::PendingSlots() const {
  MutexLock lock(&slots_mu_);
  return slots_.size();
}

void Connection::Close() {
  loop_->AssertOnLoopThread();
  if (closed_) return;
  closed_ = true;
  loop_->Unwatch(fd_);
  close(fd_);
  counters_->closed.fetch_add(1, std::memory_order_relaxed);
  // May release the server's owning reference; `this` can die when the
  // last in-flight completion drops its shared_ptr, so this stays last.
  if (on_close_) on_close_(fd_);
}

}  // namespace net
}  // namespace serve
}  // namespace lc
