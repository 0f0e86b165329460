// A small thread-safe sharded LRU map, used as the estimator result cache
// (ROADMAP "Estimator caching"): serving workloads repeat queries, and a
// hit skips featurization plus the model forward pass entirely. Sharding
// by key hash keeps lock contention negligible next to the ~µs cost of a
// model forward pass.

#ifndef LC_UTIL_LRU_CACHE_H_
#define LC_UTIL_LRU_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lc {

/// Cache effectiveness counters (monotonic over the cache's lifetime).
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;      // Capacity pressure (LRU tail dropped).
  uint64_t invalidations = 0;  // LookupValid retired a stale entry.

  uint64_t lookups() const { return hits + misses; }
  double HitRate() const {
    const uint64_t total = lookups();
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Fixed-capacity LRU cache split into independently locked shards.
/// Lookup/Insert are safe from any number of threads. Values are returned
/// by copy, so V should be cheap to copy (the estimator caches a double).
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly across shards
  /// (each shard holds at least one entry, so tiny capacities round up).
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8) {
    LC_CHECK_GT(capacity, 0u);
    LC_CHECK_GT(num_shards, 0u);
    num_shards = std::min(num_shards, capacity);
    const size_t per_shard = (capacity + num_shards - 1) / num_shards;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
  }

  /// True (and `*value` set) on a hit; the entry becomes most-recent.
  bool Lookup(const K& key, V* value) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    *value = it->second->second;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Lookup that serves an entry only while `valid(entry)` holds: an entry
  /// failing the predicate is erased under the same shard lock (it could
  /// never be served again, so keeping it would pin capacity) and the
  /// lookup counts as a miss plus an invalidation — the `invalidations`
  /// counter is how lazy stale-entry retirement is observable (capacity
  /// evictions are counted separately). Used by the estimator cache to
  /// retire estimates of a superseded model publication atomically
  /// with the lookup that discovers them.
  template <typename Pred>
  bool LookupValid(const K& key, V* value, Pred&& valid) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      if (valid(static_cast<const V&>(it->second->second))) {
        shard.order.splice(shard.order.begin(), shard.order, it->second);
        *value = it->second->second;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      shard.order.erase(it->second);
      shard.index.erase(it);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Inserts or refreshes `key`, evicting the shard's least-recent entry
  /// when at capacity. Takes the key by value so callers can move
  /// expensive keys (e.g. canonical query strings) into the entry.
  void Insert(K key, V value) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    shard.order.emplace_front(std::move(key), std::move(value));
    // The map needs its own copy of the key (one copy, not three).
    shard.index.emplace(shard.order.front().first, shard.order.begin());
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (shard.index.size() > shard.capacity) {
      shard.index.erase(shard.order.back().first);
      shard.order.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      MutexLock lock(&shard->mu);
      total += shard->index.size();
    }
    return total;
  }

  size_t capacity() const {
    size_t total = 0;
    for (const auto& shard : shards_) total += shard->capacity;
    return total;
  }

  CacheCounters counters() const {
    CacheCounters counters;
    counters.hits = hits_.load(std::memory_order_relaxed);
    counters.misses = misses_.load(std::memory_order_relaxed);
    counters.insertions = insertions_.load(std::memory_order_relaxed);
    counters.evictions = evictions_.load(std::memory_order_relaxed);
    counters.invalidations = invalidations_.load(std::memory_order_relaxed);
    return counters;
  }

 private:
  struct Shard {
    explicit Shard(size_t shard_capacity) : capacity(shard_capacity) {}
    const size_t capacity;
    mutable Mutex mu;
    // Front = most recently used.
    std::list<std::pair<K, V>> order LC_GUARDED_BY(mu);
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator>
        index LC_GUARDED_BY(mu);
  };

  Shard& ShardFor(const K& key) {
    return *shards_[hash_(key) % shards_.size()];
  }

  Hash hash_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace lc

#endif  // LC_UTIL_LRU_CACHE_H_
