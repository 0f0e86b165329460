// Uncertainty estimation via deep ensembles (paper section 5, "Uncertainty
// estimation", citing Lakshminarayanan et al., NeurIPS'17): train K MSCN
// instances that differ only in their weight-initialization / shuffling
// seed; at inference, the ensemble's geometric-mean prediction is the
// estimate and the spread of the members' (log-space) predictions is a
// confidence signal. Queries whose members disagree are exactly the queries
// outside the vicinity of the training data — where the paper says the
// optimizer should not trust the model.

#ifndef LC_CORE_ENSEMBLE_H_
#define LC_CORE_ENSEMBLE_H_

#include <vector>

#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "est/estimator.h"
#include "util/parallel.h"

namespace lc {

/// An estimate with its ensemble-derived uncertainty.
struct UncertainEstimate {
  /// Geometric mean of the member estimates (mean in log space).
  double cardinality = 0.0;
  /// Standard deviation of the members' natural-log estimates. Roughly:
  /// members agree within a factor of e^spread.
  double log_spread = 0.0;
  /// Smallest / largest member estimate.
  double min_estimate = 0.0;
  double max_estimate = 0.0;
};

/// K independently-seeded MSCN models over one featurizer.
class MscnEnsemble : public CardinalityEstimator {
 public:
  /// Trains `size` members with seeds config.seed, config.seed+1, ...
  /// History entries of the members are discarded; training cost scales
  /// linearly with `size` but the members are fitted concurrently across
  /// the process pool (each depends only on its own seed, so the trained
  /// weights match a sequential run exactly).
  MscnEnsemble(const Featurizer* featurizer, const MscnConfig& config,
               int size, const std::vector<const LabeledQuery*>& train,
               const std::vector<const LabeledQuery*>& validation);

  /// Builds an ensemble from already-trained models (e.g. loaded from
  /// disk). All models must share the featurizer's dims.
  MscnEnsemble(const Featurizer* featurizer,
               std::vector<MscnModel> members);

  std::string name() const override { return "MSCN ensemble"; }

  /// The ensemble point estimate (geometric mean of members).
  double Estimate(const LabeledQuery& query) override;

  /// Point estimate plus uncertainty.
  UncertainEstimate EstimateWithUncertainty(const LabeledQuery& query);

  /// True when the members agree within a factor of `max_factor`
  /// (max/min <= max_factor): the "trust the model" predicate of section 5.
  bool IsConfident(const LabeledQuery& query, double max_factor);

  /// Batched ensemble point estimates (geometric mean of the members per
  /// query): batches are partitioned across `pool` with per-shard tapes,
  /// like MscnEstimator::EstimateAll.
  std::vector<double> EstimateAll(
      const std::vector<const LabeledQuery*>& queries, size_t batch_size,
      ThreadPool* pool = ThreadPool::Global());

  int size() const { return static_cast<int>(members_.size()); }
  /// The `index`-th member model, in seed order.
  MscnModel& member(int index);

 private:
  const Featurizer* featurizer_;
  std::vector<MscnModel> members_;
  // Serving workspace shared by all members and reused across calls (see
  // nn/tape.h); makes the ensemble stateful like MscnEstimator — a single
  // instance must not serve concurrent calls.
  Tape tape_;
};

}  // namespace lc

#endif  // LC_CORE_ENSEMBLE_H_
