#include "core/mscn_estimator.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/env.h"

namespace lc {

void ForEachBatchShard(
    const std::vector<const LabeledQuery*>& queries, size_t batch_size,
    ThreadPool* pool,
    const std::function<void(Tape* tape,
                             const std::vector<const LabeledQuery*>& slice,
                             size_t begin)>& per_batch) {
  LC_CHECK_GT(batch_size, 0u);
  const size_t num_batches = (queries.size() + batch_size - 1) / batch_size;
  ParallelForShards(
      pool, 0, num_batches, /*grain=*/0,
      [&](size_t /*shard*/, size_t lo, size_t hi) {
        Tape tape;  // Per-shard workspace, reused across its batches.
        for (size_t batch_index = lo; batch_index < hi; ++batch_index) {
          const size_t begin = batch_index * batch_size;
          const size_t end = std::min(queries.size(), begin + batch_size);
          const std::vector<const LabeledQuery*> slice(
              queries.begin() + static_cast<ptrdiff_t>(begin),
              queries.begin() + static_cast<ptrdiff_t>(end));
          per_batch(&tape, slice, begin);
        }
      });
}

MscnEstimator::MscnEstimator(const Featurizer* featurizer, MscnModel* model,
                             std::string display_name,
                             int64_t cache_capacity)
    : MscnEstimator(featurizer, NonOwning(model), std::move(display_name),
                    cache_capacity) {}

MscnEstimator::MscnEstimator(const Featurizer* featurizer,
                             std::shared_ptr<MscnModel> model,
                             std::string display_name,
                             int64_t cache_capacity)
    : featurizer_(featurizer),
      published_(std::make_shared<const Publication>(
          Publication{std::move(model), /*version=*/0})),
      display_name_(std::move(display_name)) {
  LC_CHECK(featurizer != nullptr);
  const std::shared_ptr<MscnModel> current = model_snapshot();
  LC_CHECK(current != nullptr);
  LC_CHECK(featurizer->dims() == current->dims())
      << "featurizer and model disagree on feature dimensions";
  if (cache_capacity < 0) cache_capacity = GetEnvInt("LC_EST_CACHE", 4096);
  if (cache_capacity > 0) {
    cache_ = std::make_unique<ShardedLruCache<std::string, CachedEstimate>>(
        static_cast<size_t>(cache_capacity));
  }
}

double MscnEstimator::Estimate(const LabeledQuery& query) {
  std::string key = cache_ ? query.query.CanonicalKey() : "";
  double estimate = 0.0;
  if (ProbeCache(key, &estimate)) return estimate;
  std::vector<double> estimates;
  EstimateBatch({&query}, {std::move(key)}, &tape_, &estimates);
  return estimates[0];
}

bool MscnEstimator::ProbeCache(const std::string& canonical_key,
                               double* estimate) {
  if (!cache_) return false;
  const uint64_t version = published_.Load()->version;
  CachedEstimate entry;
  if (!cache_->LookupValid(canonical_key, &entry,
                           [version](const CachedEstimate& cached) {
                             return cached.version == version;
                           })) {
    return false;
  }
  *estimate = entry.value;
  return true;
}

std::shared_ptr<MscnModel> MscnEstimator::SwapModel(
    std::shared_ptr<MscnModel> fresh) {
  LC_CHECK(fresh != nullptr);
  LC_CHECK(featurizer_->dims() == fresh->dims())
      << "swapped-in model was trained for a different featurization";
  MutexLock lock(&swap_mu_);
  const std::shared_ptr<const Publication> current = published_.Load();
  LC_CHECK(fresh.get() != current->model.get())
      << "swapping the published model with itself";
  // Strictly increasing versions: no cached entry of any earlier
  // publication can ever read as fresh again (ABA-free lazy retirement).
  const std::shared_ptr<const Publication> superseded =
      published_.Swap(std::make_shared<const Publication>(
          Publication{std::move(fresh), current->version + 1}));
  return superseded->model;
}

void MscnEstimator::EstimateBatch(
    const std::vector<const LabeledQuery*>& queries,
    std::vector<std::string> keys, Tape* tape,
    std::vector<double>* estimates) {
  LC_CHECK(tape != nullptr);
  LC_CHECK_EQ(keys.size(), queries.size());
  estimates->clear();
  if (queries.empty()) return;

  // One snapshot for the whole call: the batch is scored with its model and
  // cached under its version, so the estimates bit-match EstimateAll over
  // this model even when a swap publishes a successor mid-flight (the handle
  // keeps the snapshot alive until we are done with it), and an entry of a
  // superseded model never reads as fresh afterwards.
  const std::shared_ptr<const Publication> published = published_.Load();
  const MscnBatch batch = featurizer_->MakeBatch(queries, nullptr);
  published->model->Predict(batch, tape, estimates);
  if (!cache_) return;
  for (size_t i = 0; i < queries.size(); ++i) {
    cache_->Insert(std::move(keys[i]),
                   CachedEstimate{published->version, (*estimates)[i]});
  }
}

std::vector<double> MscnEstimator::EstimateAll(
    const std::vector<const LabeledQuery*>& queries, size_t batch_size,
    ThreadPool* pool) {
  // One snapshot for the whole sweep; the pool workers' reads are ordered
  // through the fork/join.
  const std::shared_ptr<MscnModel> model = model_snapshot();
  std::vector<double> estimates(queries.size());
  // Forward passes only read the shared model; see ForEachBatchShard for
  // the determinism argument.
  ForEachBatchShard(
      queries, batch_size, pool,
      [&](Tape* tape, const std::vector<const LabeledQuery*>& slice,
          size_t begin) {
        const MscnBatch batch = featurizer_->MakeBatch(slice, nullptr);
        std::vector<double> batch_estimates;
        model->Predict(batch, tape, &batch_estimates);
        std::copy(batch_estimates.begin(), batch_estimates.end(),
                  estimates.begin() + static_cast<ptrdiff_t>(begin));
      });
  return estimates;
}

CacheCounters MscnEstimator::cache_counters() const {
  return cache_ ? cache_->counters() : CacheCounters{};
}

}  // namespace lc
