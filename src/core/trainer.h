// Training loop (paper sections 3.2, 3.5): mini-batch Adam on the chosen
// objective, with per-epoch validation mean q-error tracking — the curve of
// the paper's Figure 6.

#ifndef LC_CORE_TRAINER_H_
#define LC_CORE_TRAINER_H_

#include <memory>
#include <vector>

#include "core/featurizer.h"
#include "core/model.h"
#include "util/parallel.h"

namespace lc {

/// One row of the Figure-6 convergence curve.
struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double validation_mean_qerror = 0.0;
  double seconds = 0.0;
};

struct TrainingHistory {
  std::vector<EpochStats> epochs;
  double total_seconds = 0.0;
};

/// Deterministic train/validation split (by shuffled index).
struct TrainValSplit {
  std::vector<const LabeledQuery*> train;
  std::vector<const LabeledQuery*> validation;
};
TrainValSplit SplitWorkload(const Workload& workload,
                            double validation_fraction, uint64_t seed);

/// Trains MSCN models over a fixed featurizer.
class Trainer {
 public:
  Trainer(const Featurizer* featurizer, MscnConfig config);

  /// Trains a fresh model: derives the target normalizer from `train`,
  /// initializes weights from config.seed, runs config.epochs epochs of
  /// mini-batch Adam, and (when `history` is non-null) records per-epoch
  /// train loss and validation mean q-error.
  MscnModel Train(const std::vector<const LabeledQuery*>& train,
                  const std::vector<const LabeledQuery*>& validation,
                  TrainingHistory* history);

  /// Incremental training (paper section 5, "Updates"): continues fitting
  /// an existing model on new labelled queries for `epochs` epochs without
  /// re-deriving the normalizer (its bounds stay fixed, so the encoding is
  /// unchanged; cardinalities beyond the original range are clamped).
  /// The Adam state is fresh, as after a warm restart. Writes the model's
  /// weights, so it must never run on a model an estimator has published;
  /// update a served model with TrainClone + MscnEstimator::SwapModel.
  void ContinueTraining(MscnModel* model,
                        const std::vector<const LabeledQuery*>& train,
                        const std::vector<const LabeledQuery*>& validation,
                        int epochs, TrainingHistory* history);

  /// The one way to update a served model (zero-stall retrains; see
  /// docs/ARCHITECTURE.md, "Serving"): clones `base` and runs
  /// ContinueTraining on the private clone — serving traffic against
  /// `base` continues untouched for the whole retrain, no lock required.
  /// The returned model is ready for MscnEstimator::SwapModel, which
  /// publishes it under a new publication version so cached estimates of
  /// `base` retire lazily. `base` is only read.
  std::shared_ptr<MscnModel> TrainClone(
      const MscnModel& base, const std::vector<const LabeledQuery*>& train,
      const std::vector<const LabeledQuery*>& validation, int epochs,
      TrainingHistory* history);

  /// Mean q-error of `model` on `queries` (denormalized predictions vs true
  /// cardinalities). Batches are scored across the process pool with
  /// per-shard tapes; each query's q-error lands in a fixed slot, so the
  /// mean is identical for every worker count.
  double EvaluateMeanQError(MscnModel* model,
                            const std::vector<const LabeledQuery*>& queries)
      const;

  const MscnConfig& config() const { return config_; }

  /// Whether epochs overlap mini-batch featurization with the
  /// forward/backward pass (a producer thread feeding a BoundedQueue).
  /// Defaults to on when the process has more than one lane; both modes
  /// run the identical batch sequence through the identical update math,
  /// so the loss curve is bit-identical either way (asserted by
  /// tests/parallel_test.cc). Exposed for tests and benchmarks.
  void set_pipeline_featurization(bool enabled) {
    pipeline_featurization_ = enabled;
  }
  bool pipeline_featurization() const { return pipeline_featurization_; }

 private:
  // Shared mini-batch Adam loop used by Train and ContinueTraining.
  void RunEpochs(MscnModel* model,
                 const std::vector<const LabeledQuery*>& train,
                 const std::vector<const LabeledQuery*>& validation,
                 int epochs, uint64_t shuffle_seed, TrainingHistory* history);

  const Featurizer* featurizer_;
  MscnConfig config_;
  bool pipeline_featurization_ = false;  // Set from the lane count in ctor.
};

}  // namespace lc

#endif  // LC_CORE_TRAINER_H_
