#include "serve/net/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/str.h"

namespace lc {
namespace serve {
namespace net {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::IoError(Format("%s: %s", what, strerror(errno)));
}

void SetNonBlockingCloexec(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  LC_CHECK_GE(flags, 0);
  LC_CHECK_GE(fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
  flags = fcntl(fd, F_GETFD, 0);
  LC_CHECK_GE(flags, 0);
  LC_CHECK_GE(fcntl(fd, F_SETFD, flags | FD_CLOEXEC), 0);
}

}  // namespace

EpollPoller::EpollPoller() : epoll_fd_(epoll_create1(EPOLL_CLOEXEC)) {
  LC_CHECK_GE(epoll_fd_, 0) << "epoll_create1: " << strerror(errno);
}

EpollPoller::~EpollPoller() { close(epoll_fd_); }

Status EpollPoller::Add(int fd, bool want_read, bool want_write) {
  return Control(EPOLL_CTL_ADD, fd, want_read, want_write);
}

Status EpollPoller::Update(int fd, bool want_read, bool want_write) {
  return Control(EPOLL_CTL_MOD, fd, want_read, want_write);
}

void EpollPoller::Remove(int fd) {
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EpollPoller::Wait(int timeout_ms, std::vector<PollEvent>* events) {
  epoll_event ready[128];
  int n;
  do {
    n = epoll_wait(epoll_fd_, ready, 128, timeout_ms);
  } while (n < 0 && errno == EINTR);
  LC_CHECK_GE(n, 0) << "epoll_wait: " << strerror(errno);
  for (int i = 0; i < n; ++i) {
    PollEvent event;
    event.fd = ready[i].data.fd;
    event.readable = (ready[i].events & EPOLLIN) != 0;
    event.writable = (ready[i].events & EPOLLOUT) != 0;
    event.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(event);
  }
  return n;
}

Status EpollPoller::Control(int op, int fd, bool want_read,
                            bool want_write) {
  epoll_event event;
  memset(&event, 0, sizeof(event));
  event.data.fd = fd;
  if (want_read) event.events |= EPOLLIN;
  if (want_write) event.events |= EPOLLOUT;
  if (epoll_ctl(epoll_fd_, op, fd, &event) != 0) {
    return ErrnoStatus("epoll_ctl");
  }
  return Status::OK();
}

EventLoop::EventLoop() {
  int pipe_fds[2];
  LC_CHECK_EQ(pipe(pipe_fds), 0) << "pipe: " << strerror(errno);
  wakeup_read_fd_ = pipe_fds[0];
  wakeup_write_fd_ = pipe_fds[1];
  SetNonBlockingCloexec(wakeup_read_fd_);
  SetNonBlockingCloexec(wakeup_write_fd_);
  const Status watched =
      Watch(wakeup_read_fd_, /*want_read=*/true, /*want_write=*/false,
            LC_CAPTURE_SAFE(
                "the wakeup handler is unwatched by ~EventLoop before the "
                "members it reaches die; a loop cannot outlive itself",
                [this](const PollEvent&) { DrainWakeupPipe(); }));
  LC_CHECK(watched.ok()) << watched;
}

EventLoop::~EventLoop() {
  Unwatch(wakeup_read_fd_);
  close(wakeup_read_fd_);
  close(wakeup_write_fd_);
}

Status EventLoop::Watch(int fd, bool want_read, bool want_write,
                        FdHandler handler) {
  AssertOnLoopThread();
  LC_RETURN_IF_ERROR(poller_.Add(fd, want_read, want_write));
  handlers_[fd] = std::move(handler);
  return Status::OK();
}

Status EventLoop::Update(int fd, bool want_read, bool want_write) {
  AssertOnLoopThread();
  return poller_.Update(fd, want_read, want_write);
}

void EventLoop::Unwatch(int fd) {
  AssertOnLoopThread();
  poller_.Remove(fd);
  handlers_.erase(fd);
}

void EventLoop::Post(std::function<void()> task) {
  {
    MutexLock lock(&post_mu_);
    if (exited_) return;  // Loop is gone; shutdown already resolved its work.
    tasks_.push_back(std::move(task));
  }
  // A full pipe means the loop has wakeups pending anyway; EAGAIN is fine.
  const char byte = 1;
  ssize_t n;
  do {
    n = write(wakeup_write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
}

void EventLoop::RunAt(std::chrono::steady_clock::time_point when,
                      std::function<void()> task) {
  AssertOnLoopThread();
  Timer timer;
  timer.when = when;
  timer.seq = timer_seq_++;
  timer.task = std::move(task);
  timers_.push(std::move(timer));
}

void EventLoop::DrainWakeupPipe() {
  char buffer[256];
  while (read(wakeup_read_fd_, buffer, sizeof(buffer)) > 0) {
  }
}

void EventLoop::RunPostedTasks() {
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(&post_mu_);
    tasks.swap(tasks_);
  }
  for (std::function<void()>& task : tasks) task();
}

int EventLoop::NextTimerTimeoutMs() const {
  if (timers_.empty()) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto delta = timers_.top().when - now;
  if (delta <= std::chrono::steady_clock::duration::zero()) return 0;
  const int64_t ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(delta).count();
  // +1 rounds up so a timer never fires a fraction of a ms early and spins.
  return static_cast<int>(std::min<int64_t>(ms + 1, 60 * 1000));
}

void EventLoop::RunDueTimers() {
  const auto now = std::chrono::steady_clock::now();
  while (!timers_.empty() && timers_.top().when <= now) {
    // const_cast: priority_queue::top is const, but pop invalidates it
    // anyway; moving the task out first avoids a copy.
    std::function<void()> task =
        std::move(const_cast<Timer&>(timers_.top()).task);
    timers_.pop();
    task();
  }
}

void EventLoop::Run() {
  run_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  std::vector<PollEvent> events;
  while (!stop_.load(std::memory_order_acquire)) {
    RunPostedTasks();
    RunDueTimers();
    if (stop_.load(std::memory_order_acquire)) break;
    events.clear();
    poller_.Wait(NextTimerTimeoutMs(), &events);
    for (const PollEvent& event : events) {
      // The handler for an earlier event in this batch may have closed and
      // unwatched a later fd; skip stale reports.
      auto it = handlers_.find(event.fd);
      if (it == handlers_.end()) continue;
      // Copy: the handler may Unwatch(fd) and erase itself mid-call.
      FdHandler handler = it->second;
      handler(event);
    }
  }
  // Run tasks that raced the stop flag, then seal the queue: later Post()
  // calls are dropped rather than left pending forever.
  std::vector<std::function<void()>> leftover;
  {
    MutexLock lock(&post_mu_);
    leftover.swap(tasks_);
    exited_ = true;
  }
  for (std::function<void()>& task : leftover) task();
  // Teardown (~EventLoop's Unwatch, test pokes) happens on the owner thread
  // after the join; loop-affine asserts are moot once the loop is done.
  running_.store(false, std::memory_order_release);
}

void EventLoop::AssertOnLoopThread() const {
  // Before Run() starts and after it returns, no concurrent access is
  // possible (setup/teardown are single-threaded by construction).
  if (!running_.load(std::memory_order_acquire)) return;
  LC_DCHECK(std::this_thread::get_id() ==
            run_thread_.load(std::memory_order_relaxed))
      << "loop-affine state touched off the owning event-loop thread";
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  // Wake the loop if it is blocked in Wait.
  const char byte = 1;
  ssize_t n;
  do {
    n = write(wakeup_write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
}

}  // namespace net
}  // namespace serve
}  // namespace lc
