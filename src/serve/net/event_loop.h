// A single-threaded, non-blocking readiness loop for the socket transport.
//
// Ownership rule (see docs/ARCHITECTURE.md, "Network transport"): exactly
// one thread runs EventLoop::Run(), and every watched fd, timer, and
// Connection object belongs to that thread. Other threads interact with the
// loop only through Post(), which enqueues a task and wakes the loop via a
// self-pipe, so no fd state needs cross-thread locks. The sharded
// SocketServer runs N of these loops side by side; the rule holds PER LOOP
// (each owns a disjoint fd set), and Post() is how an accepted unix fd
// migrates from loop 0's accept path to the loop that will own it, and how
// shutdown reaches every loop. Posted tasks run
// in FIFO order per loop — the shutdown rendezvous in socket_server.cc
// leans on that to prove every handed-off fd is registered before its
// loop's drain snapshot is taken.
//
// The readiness backend is epoll(7) (the system is Linux-only), used
// level-triggered, so a handler that leaves bytes unread simply gets
// called again — the write-backpressure "pause reads" state machine and
// the one-read-per-event fairness bound in Connection rely on this.

#ifndef LC_SERVE_NET_EVENT_LOOP_H_
#define LC_SERVE_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace lc {
namespace serve {
namespace net {

/// One readiness report from EpollPoller::Wait.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  // Error or hangup: the handler should read (to observe EOF/errno) and
  // close. Reported even when the caller only asked for read/write.
  bool error = false;
};

/// Level-triggered epoll(7) readiness backend; one per EventLoop.
class EpollPoller {
 public:
  EpollPoller();
  ~EpollPoller();

  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  Status Add(int fd, bool want_read, bool want_write);
  Status Update(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever, 0 = poll) and appends every
  /// ready fd to `*events`. Returns the number of ready fds (0 on timeout);
  /// EINTR is retried internally.
  int Wait(int timeout_ms, std::vector<PollEvent>* events);

 private:
  Status Control(int op, int fd, bool want_read, bool want_write);

  int epoll_fd_;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  using FdHandler = std::function<void(const PollEvent&)>;

  /// Registers `fd` with the poller; `handler` runs on the loop thread for
  /// every readiness report. Loop-thread only (or before Run()).
  Status Watch(int fd, bool want_read, bool want_write, FdHandler handler);
  /// Changes the interest set of a watched fd. Loop-thread only.
  Status Update(int fd, bool want_read, bool want_write);
  /// Unregisters `fd` (the caller closes it). Loop-thread only.
  void Unwatch(int fd);

  /// Thread-safe: runs `task` on the loop thread as soon as it wakes.
  /// Tasks posted before Run() execute at loop start; tasks posted after
  /// the loop exited are dropped (shutdown has already force-resolved
  /// everything they could complete).
  void Post(std::function<void()> task) LC_EXCLUDES(post_mu_);

  /// Schedules `task` on the loop thread at `when`. Loop-thread only;
  /// periodic work re-arms itself from inside its task.
  void RunAt(std::chrono::steady_clock::time_point when,
             std::function<void()> task);

  /// Runs until Stop(); dispatches readiness handlers, posted tasks and
  /// timers. Returns after the stop request is observed. LC_ON_LOOP is
  /// definitional here: the thread executing Run() IS the loop thread, so
  /// its direct touches of handlers_/timers_ need no assert.
  void Run() LC_ON_LOOP;

  /// Thread-safe and idempotent: makes Run() return.
  void Stop();

  /// The runtime half of the LC_LOOP_AFFINE discipline: debug-build abort
  /// when called off the owning loop thread WHILE the loop runs. Touching
  /// loop-affine state before Run() starts or after it returns is legal
  /// (single-threaded setup and teardown) and passes. Called by every
  /// loop-thread-only entry point here and in Connection; release builds
  /// compile it down to one relaxed atomic load.
  void AssertOnLoopThread() const;

 private:
  struct Timer {
    std::chrono::steady_clock::time_point when;
    uint64_t seq;  // FIFO tie-break for equal deadlines.
    std::function<void()> task;
    bool operator>(const Timer& other) const {
      return when != other.when ? when > other.when : seq > other.seq;
    }
  };

  void DrainWakeupPipe();
  void RunPostedTasks();
  int NextTimerTimeoutMs() const;
  void RunDueTimers();

  EpollPoller poller_;
  int wakeup_read_fd_ = -1;
  int wakeup_write_fd_ = -1;

  std::unordered_map<int, FdHandler> handlers_ LC_LOOP_AFFINE(this);
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>
      timers_ LC_LOOP_AFFINE(this);
  uint64_t timer_seq_ LC_LOOP_AFFINE(this) = 0;

  // The cross-thread edge: everything other threads may touch goes through
  // post_mu_ (the task queue) or is atomic (the stop flag, the loop-thread
  // identity AssertOnLoopThread checks against).
  Mutex post_mu_;
  std::vector<std::function<void()>> tasks_ LC_GUARDED_BY(post_mu_);
  bool exited_ LC_GUARDED_BY(post_mu_) = false;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::thread::id> run_thread_{};
};

}  // namespace net
}  // namespace serve
}  // namespace lc

#endif  // LC_SERVE_NET_EVENT_LOOP_H_
