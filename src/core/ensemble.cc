#include "core/ensemble.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace lc {

namespace {

std::vector<MscnModel> TrainMembers(
    const Featurizer* featurizer, const MscnConfig& config, int size,
    const std::vector<const LabeledQuery*>& train,
    const std::vector<const LabeledQuery*>& validation) {
  LC_CHECK(featurizer != nullptr);
  LC_CHECK_GT(size, 0);
  std::vector<MscnModel> members(static_cast<size_t>(size));
  // Members differ only in their seed and never share mutable state, so
  // they train concurrently and land in their slots deterministically.
  ParallelFor(ThreadPool::Global(), 0, static_cast<size_t>(size), 1,
              [&](size_t member) {
                MscnConfig member_config = config;
                member_config.seed =
                    config.seed + static_cast<uint64_t>(member);
                Trainer trainer(featurizer, member_config);
                members[member] = trainer.Train(train, validation, nullptr);
              });
  return members;
}

}  // namespace

MscnEnsemble::MscnEnsemble(const Featurizer* featurizer,
                           const MscnConfig& config, int size,
                           const std::vector<const LabeledQuery*>& train,
                           const std::vector<const LabeledQuery*>& validation)
    : featurizer_(featurizer),
      members_(TrainMembers(featurizer, config, size, train, validation)) {}

MscnEnsemble::MscnEnsemble(const Featurizer* featurizer,
                           std::vector<MscnModel> members)
    : featurizer_(featurizer),
      members_(std::move(members)) {
  LC_CHECK(featurizer != nullptr);
  LC_CHECK(!members_.empty());
  for (const MscnModel& member : members_) {
    LC_CHECK(member.dims() == featurizer->dims())
        << "ensemble member does not match the featurizer";
  }
}

MscnModel& MscnEnsemble::member(int index) {
  LC_CHECK(index >= 0 && index < size());
  return members_[static_cast<size_t>(index)];
}

UncertainEstimate MscnEnsemble::EstimateWithUncertainty(
    const LabeledQuery& query) {
  const MscnBatch batch = featurizer_->MakeBatch({&query}, nullptr);
  std::vector<double> log_estimates;
  log_estimates.reserve(members_.size());
  UncertainEstimate result;
  result.min_estimate = std::numeric_limits<double>::infinity();
  result.max_estimate = 0.0;
  std::vector<double> member_estimates;
  for (MscnModel& member : members_) {
    member_estimates.clear();
    member.Predict(batch, &tape_, &member_estimates);
    const double estimate = std::max(1.0, member_estimates[0]);
    log_estimates.push_back(std::log(estimate));
    result.min_estimate = std::min(result.min_estimate, estimate);
    result.max_estimate = std::max(result.max_estimate, estimate);
  }
  double mean_log = 0.0;
  for (double value : log_estimates) mean_log += value;
  mean_log /= static_cast<double>(log_estimates.size());
  double variance = 0.0;
  for (double value : log_estimates) {
    variance += (value - mean_log) * (value - mean_log);
  }
  variance /= static_cast<double>(log_estimates.size());
  result.cardinality = std::exp(mean_log);
  result.log_spread = std::sqrt(variance);
  return result;
}

double MscnEnsemble::Estimate(const LabeledQuery& query) {
  return EstimateWithUncertainty(query).cardinality;
}

std::vector<double> MscnEnsemble::EstimateAll(
    const std::vector<const LabeledQuery*>& queries, size_t batch_size,
    ThreadPool* pool) {
  std::vector<double> estimates(queries.size());
  // Every member's forward pass only reads that member's parameters; see
  // ForEachBatchShard for the partition/determinism argument.
  ForEachBatchShard(
      queries, batch_size, pool,
      [&](Tape* tape, const std::vector<const LabeledQuery*>& slice,
          size_t begin) {
        const MscnBatch batch = featurizer_->MakeBatch(slice, nullptr);
        std::vector<double> member_estimates;
        std::vector<double> log_sums(slice.size(), 0.0);
        for (MscnModel& member : members_) {
          member_estimates.clear();
          member.Predict(batch, tape, &member_estimates);
          for (size_t i = 0; i < slice.size(); ++i) {
            log_sums[i] += std::log(std::max(1.0, member_estimates[i]));
          }
        }
        for (size_t i = 0; i < slice.size(); ++i) {
          estimates[begin + i] =
              std::exp(log_sums[i] / static_cast<double>(members_.size()));
        }
      });
  return estimates;
}

bool MscnEnsemble::IsConfident(const LabeledQuery& query, double max_factor) {
  LC_CHECK_GE(max_factor, 1.0);
  const UncertainEstimate estimate = EstimateWithUncertainty(query);
  if (estimate.min_estimate <= 0.0) return false;
  return estimate.max_estimate / estimate.min_estimate <= max_factor;
}

}  // namespace lc
