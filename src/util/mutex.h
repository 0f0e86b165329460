// Annotated synchronization primitives: thin zero-overhead wrappers over
// std::mutex / std::condition_variable that carry the
// Clang Thread Safety Analysis attributes from util/thread_annotations.h,
// so `-Wthread-safety -Werror` can prove the repo's lock discipline at
// compile time (which mutex guards which field, which functions require a
// lock held, which must be called without it).
//
// This header is the ONLY place in src/ allowed to name the std::
// synchronization types — tools/lint_invariants.py enforces that every
// other file uses lc::Mutex / lc::MutexLock / lc::CondVar, because a raw
// std::mutex member is invisible to the analysis and silently punches a
// hole in the proofs. There is deliberately no reader/writer lock: no
// reader needs one (a published model is immutable and swapped, not
// written; see core/mscn_estimator.h).
//
// API shape follows Abseil's Mutex (Lock/Unlock/MutexLock(&mu)) rather
// than the standard library's (lock_guard<mutex>), because the analysis
// needs the capability to be a *named member* that attributes can point
// at, and the Abseil surface is the canonical annotated one.

#ifndef LC_UTIL_MUTEX_H_
#define LC_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace lc {

class CondVar;

/// std::mutex with capability annotations. Non-recursive; acquiring a
/// Mutex the caller already holds is undefined behavior, which is exactly
/// what LC_EXCLUDES on self-locking methods catches at compile time.
class LC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LC_ACQUIRE() { mu_.lock(); }
  void Unlock() LC_RELEASE() { mu_.unlock(); }
  bool TryLock() LC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Compile-time-only claim that this mutex is held at this point, for the
  /// rare spot where the hold is real but flows through a path the analysis
  /// cannot follow. No runtime check (std::mutex cannot answer "held by
  /// me"); prefer restructuring so a scoped lock or LC_REQUIRES proves it.
  void AssertHeld() const LC_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII exclusive hold on a Mutex for the current scope.
class LC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LC_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() LC_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to lc::Mutex. Waits REQUIRE the mutex held —
/// enforced at compile time, where std::condition_variable only finds a
/// missing lock at runtime (or never). Notify does not require the lock;
/// call it AFTER the critical section where possible so the woken thread
/// does not immediately block on the mutex the notifier still holds
/// (the existing BoundedQueue/ThreadPool convention, preserved by the
/// `{ MutexLock lock(&mu_); ... } cv_.NotifyOne();` shape).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, reacquires. Spurious
  /// wakeups happen; always wait in a `while (!predicate)` loop.
  void Wait(Mutex* mu) LC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Caller's scoped guard still owns the reacquired mu.
  }

  /// Wait, but give up at `deadline`. Returns std::cv_status::timeout iff
  /// the deadline passed (the mutex is reacquired either way).
  template <class Clock, class Duration>
  std::cv_status WaitUntil(
      Mutex* mu, const std::chrono::time_point<Clock, Duration>& deadline)
      LC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  /// Wait with a relative timeout.
  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex* mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      LC_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lc

#endif  // LC_UTIL_MUTEX_H_
