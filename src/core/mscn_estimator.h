// MSCN as a drop-in CardinalityEstimator: featurize, run the model, invert
// the target normalization (paper section 3.5). The estimator consumes the
// query's precomputed sample annotations — the runtime-sampling step of the
// paper's inference pipeline.
//
// Serving-path features:
//  - An optional sharded LRU result cache (canonical query → estimate)
//    sized by the LC_EST_CACHE knob (entries; 0 disables; default 4096).
//    A hit skips featurization and the forward pass. Counters are exposed
//    via cache_counters() and printed by eval::PrintCacheCounters.
//  - Every cache entry records the publication version of the model it
//    was computed under and is served only while that version is current,
//    so a model update can never surface a pre-update estimate as fresh —
//    even when the swap races with serving threads. See "Publication
//    protocol" below.
//  - EstimateAll partitions its batches across the process thread pool
//    with per-shard tapes, yielding the same estimates as the sequential
//    path bit-for-bit (padding rows are zero and masked, so a query's
//    forward pass is independent of its batch neighbours).
//  - ProbeCache and EstimateBatch are the thread-safe serving pair used by
//    serve::EstimatorServer: ProbeCache is the one counted cache lookup of
//    a request, and EstimateBatch scores the misses in one forward pass on
//    a caller-owned tape and fills the cache.
//
// Model ownership: the estimator holds its model behind a SwapHandle
// (util/swap_handle.h). Constructed over a raw pointer it merely borrows
// (the model must outlive it, as before); constructed over a shared_ptr it
// shares ownership. Either way, every estimate path works on a Load()ed
// snapshot, so SwapModel() can atomically publish a replacement trained
// off to the side (Trainer::TrainClone) while in-flight estimates finish
// against the model they started with.
//
// Publication protocol (pinned by tests/serve_test.cc under TSan):
//  - A published model is immutable. Nothing writes its weights while any
//    estimator publishes it — not Trainer::ContinueTraining, not a direct
//    parameter write — so the estimate paths read it without a lock. The
//    one way to update a served model is copy-train-swap: TrainClone +
//    SwapModel. No estimate ever blocks on training; the swap is a pointer
//    exchange. The rule is a contract, not a type: the forward pass
//    records parameters on a Tape by non-const Parameter*, so the handle
//    holds a mutable MscnModel.
//  - The model and its publication version share one SwapHandle slot, so
//    a single Load() yields both. The version starts at 0 and only
//    SwapModel sets it, one past the version it supersedes; SwapModel
//    never writes the model it is given.
//  - Cache lookups judge freshness against the current version and treat
//    any entry whose recorded version differs as a miss, erasing it in
//    place (lazy retirement — never a global wipe, whose
//    clear-then-reinsert window can serve a pre-swap estimate as fresh).
//    Entries inserted by in-flight estimates that started before a swap
//    carry the superseded version and are therefore never served
//    afterwards. Versions strictly increase, so an entry tagged under any
//    earlier publication can never compare equal to the current one.

#ifndef LC_CORE_MSCN_ESTIMATOR_H_
#define LC_CORE_MSCN_ESTIMATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/model.h"
#include "est/estimator.h"
#include "nn/tape.h"
#include "util/lru_cache.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/swap_handle.h"
#include "util/thread_annotations.h"

namespace lc {

/// Shared scaffolding of the batched estimation paths (EstimateAll and
/// Trainer): partitions [0, queries.size()) into consecutive batches
/// of `batch_size`, shards whole batches across `pool`, and calls
/// per_batch(tape, slice, begin) with a per-shard reusable tape. Batch
/// composition and result slots are fixed, so callers writing estimates
/// to [begin, begin + slice.size()) are deterministic per worker count.
void ForEachBatchShard(
    const std::vector<const LabeledQuery*>& queries, size_t batch_size,
    ThreadPool* pool,
    const std::function<void(Tape* tape,
                             const std::vector<const LabeledQuery*>& slice,
                             size_t begin)>& per_batch);

class MscnEstimator : public CardinalityEstimator {
 public:
  /// Borrows the model (and the featurizer, which must both outlive the
  /// estimator). `cache_capacity < 0` reads LC_EST_CACHE (default 4096);
  /// 0 disables the result cache.
  MscnEstimator(const Featurizer* featurizer, MscnModel* model,
                std::string display_name = "MSCN",
                int64_t cache_capacity = -1);

  /// Shares ownership of the model — the handle keeps it alive until the
  /// last in-flight estimate over it finishes, even across SwapModel.
  MscnEstimator(const Featurizer* featurizer,
                std::shared_ptr<MscnModel> model,
                std::string display_name = "MSCN",
                int64_t cache_capacity = -1);

  std::string name() const override { return display_name_; }
  const Featurizer* featurizer() const { return featurizer_; }

  double Estimate(const LabeledQuery& query) override;

  /// Batched estimation (much faster than per-query calls); batches are
  /// scored across `pool` (nullptr = inline). Does not consult or fill the
  /// result cache — batch scoring is already cheap per query and skipping
  /// the cache keeps the hot loop lock-free.
  std::vector<double> EstimateAll(
      const std::vector<const LabeledQuery*>& queries, size_t batch_size,
      ThreadPool* pool = ThreadPool::Global());

  /// The serving score path: scores every query in `queries` as one batch
  /// on the caller-owned `tape` — it looks nothing up (the caller's
  /// ProbeCache already missed) — and inserts each result into the cache
  /// under the publication version of the snapshot that scored it.
  /// `keys[i]` is queries[i]->query.CanonicalKey(), which the caller
  /// already computed for its ProbeCache; the keys move into the cache.
  /// With the cache disabled the keys are never read. `estimates` receives
  /// one value per query, bit-identical to EstimateAll over the same
  /// queries against that snapshot: padding-masked batching makes a
  /// query's forward pass independent of batch composition. Safe to call
  /// from many threads concurrently provided each caller passes its own
  /// tape.
  void EstimateBatch(const std::vector<const LabeledQuery*>& queries,
                     std::vector<std::string> keys, Tape* tape,
                     std::vector<double>* estimates);

  /// The one counted cache lookup of a request, keyed by
  /// Query::CanonicalKey() text: true (and `*estimate` set) only on a hit
  /// that is fresh for the current publication version; a miss, absent or
  /// stale, counts as a miss. Never runs the model.
  bool ProbeCache(const std::string& canonical_key, double* estimate);

  /// Atomically publishes `fresh` (trained off to the side, e.g. by
  /// Trainer::TrainClone) as the serving model under the next publication
  /// version and returns the superseded model. In-flight estimates finish
  /// against the snapshot they loaded; new estimates see `fresh`. Cached
  /// estimates of every earlier publication retire lazily at the lookup
  /// that discovers them — no cache wipe, no stall. `fresh` is not
  /// written, and from here on nothing may write it (see "Publication
  /// protocol" above).
  std::shared_ptr<MscnModel> SwapModel(std::shared_ptr<MscnModel> fresh)
      LC_EXCLUDES(swap_mu_);

  /// The currently published model. The snapshot stays valid for as long
  /// as the caller holds it, even across SwapModel. It is published, so
  /// the caller must not write it; TrainClone it to derive an update.
  std::shared_ptr<MscnModel> model_snapshot() const {
    return published_.Load()->model;
  }

  /// Hit/miss/eviction counters of the result cache (zeroes when the cache
  /// is disabled). `invalidations` counts lazily retired stale entries.
  CacheCounters cache_counters() const;
  size_t cache_capacity() const { return cache_ ? cache_->capacity() : 0; }

 private:
  /// The published model together with the version SwapModel assigned
  /// it: one handle slot, so one Load() sees a matching pair.
  struct Publication {
    std::shared_ptr<MscnModel> model;
    uint64_t version = 0;
  };

  /// A cached estimate is valid only while the publication version it was
  /// computed under is current.
  struct CachedEstimate {
    uint64_t version = 0;
    double value = 0.0;
  };

  const Featurizer* featurizer_;
  SwapHandle<const Publication> published_;
  std::string display_name_;
  // Serving workspace, reused across calls so steady-state inference does
  // not allocate tensor storage. Makes single-query Estimate stateful: a
  // single instance must not serve concurrent Estimate calls (EstimateAll
  // and EstimateBatch use caller/shard-owned tapes and are thread-safe).
  Tape tape_;
  // Serializes SwapModel with itself (load-version-publish must not
  // interleave between two swappers, or two publications could share a
  // version).
  Mutex swap_mu_;
  // Keyed by the canonical query text itself (not its hash), so a hit is
  // exact by construction.
  std::unique_ptr<ShardedLruCache<std::string, CachedEstimate>> cache_;
};

}  // namespace lc

#endif  // LC_CORE_MSCN_ESTIMATOR_H_
