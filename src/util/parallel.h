// Concurrency substrate: a fixed-size thread pool, deterministic
// parallel-for helpers, and a bounded producer/consumer queue.
//
// Design rules (see docs/ARCHITECTURE.md, "Concurrency"):
//  - One lazily-created global pool (ThreadPool::Global()) sized by the
//    LC_THREADS environment knob (default: hardware concurrency). Layers
//    that parallelize take an optional ThreadPool* so tests can pin the
//    worker count; nullptr always means "run inline on the caller".
//  - ParallelFor/ParallelForShards use *static* partitioning: the shard
//    boundaries depend only on (begin, end, grain), never on the worker
//    count or scheduling, so per-shard state (e.g. Rng streams seeded by
//    the shard index) is reproducible across thread counts.
//  - The caller always participates in the work and helper tasks pull
//    shards from a shared counter, so nested parallel sections cannot
//    deadlock even when every pool worker is busy (the nested call simply
//    degrades toward inline execution).
//  - Lock discipline is declared with the util/thread_annotations.h
//    attributes and proven by the Clang `-Wthread-safety` CI job.

#ifndef LC_UTIL_PARALLEL_H_
#define LC_UTIL_PARALLEL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lc {

/// Worker count for the global pool: LC_THREADS when set to a positive
/// value, otherwise std::thread::hardware_concurrency(); always >= 1.
int DefaultParallelism();

/// A fixed set of worker threads consuming a FIFO task queue. Tasks still
/// queued when the pool is destroyed are executed (not dropped) before the
/// workers join, so a Submit() is never silently lost.
class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 is allowed and makes Submit() run tasks
  /// on the calling thread (a degenerate but valid pool for tests).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task. Never blocks (the queue is unbounded; use
  /// BoundedQueue for backpressure between pipeline stages).
  void Submit(std::function<void()> task) LC_EXCLUDES(mu_);

  /// The process-wide pool, created on first use with
  /// DefaultParallelism() - 1 workers (the caller of a parallel section is
  /// the remaining lane). Never destroyed, so detached work can outlive
  /// static destruction order. With LC_THREADS=1 the pool has no workers
  /// and every parallel section runs inline and deterministically.
  static ThreadPool* Global();

 private:
  void WorkerLoop() LC_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ LC_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;  // Written in the ctor only.
  bool shutdown_ LC_GUARDED_BY(mu_) = false;
};

/// Number of execution lanes a parallel section over `pool` uses: the
/// caller plus the pool's workers. Lanes(nullptr) == 1.
int Lanes(const ThreadPool* pool);

/// Lanes of the global pool (== DefaultParallelism()).
int Lanes();

/// Runs body(shard_index, lo, hi) over the static partition of [begin, end)
/// into shards of `grain` items (the last shard may be short). Shard
/// boundaries depend only on (begin, end, grain) — see file comment.
/// `grain == 0` picks a shard size automatically from the lane count; use
/// it only when the result does not depend on the partition. Blocks until
/// every shard finished or was abandoned: after the first exception from
/// `body`, in-flight shards complete but unstarted shards are skipped
/// (fail fast), and that first exception is rethrown on the caller.
void ParallelForShards(
    ThreadPool* pool, size_t begin, size_t end, size_t grain,
    const std::function<void(size_t shard_index, size_t lo, size_t hi)>&
        body);

/// Per-index convenience over ParallelForShards: fn(i) for i in [begin,end).
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t i)>& fn);

/// Runs the tasks concurrently (caller participates) and waits for all.
void ParallelInvoke(ThreadPool* pool,
                    std::vector<std::function<void()>> tasks);

/// Global-pool conveniences.
void ParallelForShards(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t shard_index, size_t lo, size_t hi)>&
        body);
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t i)>& fn);
void ParallelInvoke(std::vector<std::function<void()>> tasks);

/// A bounded multi-producer/multi-consumer FIFO for pipelining (e.g. the
/// trainer's featurize → forward/backward stages). Push blocks while full,
/// Pop blocks while empty. Close() wakes everyone: subsequent pushes fail,
/// pops drain the remaining items and then fail.
///
/// Shutdown contract (pinned by tests/parallel_test.cc,
/// BoundedQueueTest.*Close*): an item whose Push was accepted is
/// always observable by some Pop — Close() never drops queued items, it
/// only stops admission. Producers blocked in Push when Close() lands wake
/// and return false with their item NOT enqueued; consumers blocked in Pop
/// wake, drain whatever was accepted before the close, and then return
/// false. All waits re-check their predicate in a loop, so the NotifyAll
/// in Close() cannot be missed by a racing waiter. Notifies happen after
/// the critical section so a woken thread never immediately blocks on the
/// mutex the notifier still holds.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    LC_CHECK_GT(capacity, 0u);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room; false iff the queue was closed (the value
  /// is dropped).
  bool Push(T value) LC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      while (!closed_ && items_.size() >= capacity_) not_full_.Wait(&mu_);
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks until an item arrives; false iff the queue is closed and fully
  /// drained.
  bool Pop(T* out) LC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      while (!closed_ && items_.empty()) not_empty_.Wait(&mu_);
      if (items_.empty()) return false;  // Closed and drained.
      *out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return true;
  }

  void Close() LC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const LC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

  size_t size() const LC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ LC_GUARDED_BY(mu_);
  bool closed_ LC_GUARDED_BY(mu_) = false;
};

}  // namespace lc

#endif  // LC_UTIL_PARALLEL_H_
