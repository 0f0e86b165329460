// An atomically swappable shared handle — the RCU-ish primitive under
// copy-train-swap model updates (docs/ARCHITECTURE.md, "Serving"):
// readers Load() a snapshot whose refcount pins the object for as long as
// they use it, a writer Swap()s in a replacement built off to the side,
// and the superseded object is destroyed when its last reader drops the
// snapshot (the shared_ptr refcount is the grace period). Readers never
// block on whatever work produced the replacement — the swap itself is a
// pointer exchange under a mutex held for nanoseconds, not for the
// duration of the (possibly multi-second) rebuild.
//
// The handle synchronizes the pointer, not the object: a published object
// must not be written while any snapshot of it may be live. Updates build
// a new object and Swap() it in. Anything that must be read consistently
// with the object (MscnEstimator's publication version, for one) belongs
// in the same slot, so one Load() returns both.
//
// This is deliberately a mutex around a shared_ptr rather than
// std::atomic<std::shared_ptr<T>>: the critical section is two refcount
// operations, contention is negligible next to the per-request work of
// every caller in this codebase, and the mutex keeps the TSan story
// trivial (no dependence on libstdc++'s internal atomic-shared_ptr
// locking discipline).

#ifndef LC_UTIL_SWAP_HANDLE_H_
#define LC_UTIL_SWAP_HANDLE_H_

#include <memory>
#include <utility>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lc {

/// Wraps a raw pointer the caller guarantees outlives every user into a
/// non-owning shared_ptr, so borrowing APIs (e.g. MscnEstimator over a
/// stack-allocated model) compose with SwapHandle ownership.
template <typename T>
std::shared_ptr<T> NonOwning(T* ptr) {
  return std::shared_ptr<T>(ptr, [](T*) {});
}

/// A shared_ptr<T> slot with atomic load/swap semantics. Load() is safe
/// from any number of threads concurrently with a Swap(); a reader that
/// loaded the old value keeps it alive until it drops the snapshot.
template <typename T>
class SwapHandle {
 public:
  explicit SwapHandle(std::shared_ptr<T> initial)
      : ptr_(std::move(initial)) {
    LC_CHECK(ptr_ != nullptr);
  }

  SwapHandle(const SwapHandle&) = delete;
  SwapHandle& operator=(const SwapHandle&) = delete;

  /// Snapshot of the current value. Never null.
  std::shared_ptr<T> Load() const LC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return ptr_;
  }

  /// Publishes `fresh` and returns the superseded value. Readers holding
  /// pre-swap snapshots are unaffected; new Load()s see `fresh`.
  std::shared_ptr<T> Swap(std::shared_ptr<T> fresh) LC_EXCLUDES(mu_) {
    LC_CHECK(fresh != nullptr);
    MutexLock lock(&mu_);
    std::swap(ptr_, fresh);
    return fresh;  // The old value after the swap above.
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<T> ptr_ LC_GUARDED_BY(mu_);
};

}  // namespace lc

#endif  // LC_UTIL_SWAP_HANDLE_H_
