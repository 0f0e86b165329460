#include "core/trainer.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "core/mscn_estimator.h"  // ForEachBatchShard.
#include "nn/adam.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/timer.h"

namespace lc {

TrainValSplit SplitWorkload(const Workload& workload,
                            double validation_fraction, uint64_t seed) {
  LC_CHECK(!workload.queries.empty());
  LC_CHECK(validation_fraction >= 0.0 && validation_fraction < 1.0);
  std::vector<size_t> indices(workload.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  Rng rng(seed);
  rng.Shuffle(&indices);
  const size_t validation_count = static_cast<size_t>(
      validation_fraction * static_cast<double>(indices.size()));
  TrainValSplit split;
  split.validation.reserve(validation_count);
  split.train.reserve(indices.size() - validation_count);
  for (size_t i = 0; i < indices.size(); ++i) {
    const LabeledQuery* query = &workload.queries[indices[i]];
    if (i < validation_count) {
      split.validation.push_back(query);
    } else {
      split.train.push_back(query);
    }
  }
  return split;
}

Trainer::Trainer(const Featurizer* featurizer, MscnConfig config)
    : featurizer_(featurizer),
      config_(config),
      pipeline_featurization_(Lanes() > 1) {
  LC_CHECK(featurizer != nullptr);
  LC_CHECK_GT(config.epochs, 0);
  LC_CHECK_GT(config.batch_size, 0);
}

double Trainer::EvaluateMeanQError(
    MscnModel* model,
    const std::vector<const LabeledQuery*>& queries) const {
  LC_CHECK(!queries.empty());
  std::vector<double> qerrors(queries.size());
  // Forward passes read the model parameters concurrently but all mutable
  // state (tape, estimates) is per-shard; q-errors land in fixed slots.
  ForEachBatchShard(
      queries, static_cast<size_t>(config_.batch_size), ThreadPool::Global(),
      [&](Tape* tape, const std::vector<const LabeledQuery*>& slice,
          size_t begin) {
        const MscnBatch batch = featurizer_->MakeBatch(slice, nullptr);
        std::vector<double> estimates;
        model->Predict(batch, tape, &estimates);
        for (size_t i = 0; i < slice.size(); ++i) {
          qerrors[begin + i] = QError(
              estimates[i], static_cast<double>(slice[i]->cardinality));
        }
      });
  return Mean(qerrors);
}

void Trainer::RunEpochs(MscnModel* model,
                        const std::vector<const LabeledQuery*>& train,
                        const std::vector<const LabeledQuery*>& validation,
                        int epochs, uint64_t shuffle_seed,
                        TrainingHistory* history) {
  LC_CHECK(!train.empty());
  const TargetNormalizer& normalizer = model->normalizer();
  const float log_range = normalizer.LogRange();

  AdamConfig adam_config;
  adam_config.learning_rate = static_cast<float>(config_.learning_rate);
  Adam adam(model->parameters(), adam_config);

  std::vector<const LabeledQuery*> order = train;
  Rng shuffle_rng(shuffle_seed);
  Tape tape;  // Reused across batches and epochs; see nn/tape.h.
  WallTimer total_timer;
  const int base_epoch =
      history == nullptr ? 0 : static_cast<int>(history->epochs.size());

  // One gradient step; shared verbatim by the synchronous and pipelined
  // epoch loops below, so both produce bit-identical updates.
  double loss_sum = 0.0;
  int64_t batches = 0;
  const auto train_step = [&](const MscnBatch& batch) {
    tape.Reset();
    const Tape::NodeId prediction = model->Forward(&tape, batch);
    Tape::NodeId loss = 0;
    switch (config_.loss) {
      case LossKind::kMeanQError:
        loss = tape.MeanQErrorLoss(prediction, batch.targets, log_range);
        break;
      case LossKind::kGeoQError:
        loss = tape.GeoQErrorLoss(prediction, batch.targets, log_range);
        break;
      case LossKind::kMse:
        loss = tape.MseLoss(prediction, batch.targets);
        break;
    }
    loss_sum += tape.value(loss)[0];
    ++batches;
    adam.ZeroGrad();
    tape.Backward(loss);
    adam.Step();
  };

  for (int epoch = 0; epoch < epochs; ++epoch) {
    WallTimer epoch_timer;
    shuffle_rng.Shuffle(&order);
    loss_sum = 0.0;
    batches = 0;
    const size_t batch_size = static_cast<size_t>(config_.batch_size);
    if (!pipeline_featurization_) {
      for (size_t begin = 0; begin < order.size(); begin += batch_size) {
        const size_t end = std::min(order.size(), begin + batch_size);
        const std::vector<const LabeledQuery*> slice(order.begin() + begin,
                                                     order.begin() + end);
        train_step(featurizer_->MakeBatch(slice, &normalizer));
      }
    } else {
      // Producer/consumer overlap: a dedicated thread featurizes batches in
      // shuffle order ahead of the optimizer (backpressure via the bounded
      // queue). The batch sequence and the update math are exactly those of
      // the synchronous loop, so the loss curve does not depend on the
      // mode. The producer is a plain thread — not a pool task — so a busy
      // pool can never stall an epoch, and the tape only borrows tensors of
      // the batch it currently owns.
      BoundedQueue<std::unique_ptr<MscnBatch>> queue(4);
      std::exception_ptr producer_error;  // Read only after join().
      std::thread producer([&] {
        try {
          for (size_t begin = 0; begin < order.size();
               begin += batch_size) {
            const size_t end = std::min(order.size(), begin + batch_size);
            const std::vector<const LabeledQuery*> slice(
                order.begin() + begin, order.begin() + end);
            auto batch = std::make_unique<MscnBatch>(
                featurizer_->MakeBatch(slice, &normalizer));
            if (!queue.Push(std::move(batch))) return;
          }
        } catch (...) {
          // Surfaced on the training thread after join(); an exception
          // escaping a thread function would std::terminate.
          producer_error = std::current_exception();
        }
        queue.Close();
      });
      try {
        std::unique_ptr<MscnBatch> batch;
        while (queue.Pop(&batch)) train_step(*batch);
      } catch (...) {
        // Unblock the producer (its next Push fails), drain, and join
        // before rethrowing — a joinable thread destructor would
        // std::terminate instead of propagating the error.
        queue.Close();
        std::unique_ptr<MscnBatch> drained;
        while (queue.Pop(&drained)) {
        }
        producer.join();
        throw;
      }
      producer.join();
      if (producer_error) std::rethrow_exception(producer_error);
    }

    if (history != nullptr) {
      EpochStats stats;
      stats.epoch = base_epoch + epoch + 1;
      stats.train_loss = loss_sum / static_cast<double>(batches);
      stats.validation_mean_qerror =
          validation.empty() ? 0.0 : EvaluateMeanQError(model, validation);
      stats.seconds = epoch_timer.Seconds();
      history->epochs.push_back(stats);
    }
  }
  if (history != nullptr) history->total_seconds += total_timer.Seconds();
}

MscnModel Trainer::Train(const std::vector<const LabeledQuery*>& train,
                         const std::vector<const LabeledQuery*>& validation,
                         TrainingHistory* history) {
  LC_CHECK(!train.empty());

  // Normalization bounds from the training labels only (section 3.2).
  std::vector<int64_t> cardinalities;
  cardinalities.reserve(train.size());
  for (const LabeledQuery* query : train) {
    cardinalities.push_back(query->cardinality);
  }
  const TargetNormalizer normalizer =
      TargetNormalizer::FromCardinalities(cardinalities);

  Rng init_rng(config_.seed);
  MscnModel model(featurizer_->dims(), config_, &init_rng);
  model.set_normalizer(normalizer);

  WallTimer total_timer;
  RunEpochs(&model, train, validation, config_.epochs,
            config_.seed ^ 0x5add1e5ULL, history);
  LC_LOG(DEBUG) << "trained MSCN (" << FeatureVariantName(config_.variant)
                << ") for " << config_.epochs << " epochs over "
                << train.size() << " queries in "
                << total_timer.Seconds() << "s";
  return model;
}

void Trainer::ContinueTraining(
    MscnModel* model, const std::vector<const LabeledQuery*>& train,
    const std::vector<const LabeledQuery*>& validation, int epochs,
    TrainingHistory* history) {
  LC_CHECK(model != nullptr);
  LC_CHECK(model->dims() == featurizer_->dims())
      << "model was trained for a different featurization";
  LC_CHECK_GT(epochs, 0);
  RunEpochs(model, train, validation, epochs,
            config_.seed ^ 0x1c0de5a17ULL, history);
}

std::shared_ptr<MscnModel> Trainer::TrainClone(
    const MscnModel& base, const std::vector<const LabeledQuery*>& train,
    const std::vector<const LabeledQuery*>& validation, int epochs,
    TrainingHistory* history) {
  // The clone starts from base's weights and is private until SwapModel,
  // so training it needs no lock and never touches `base`.
  auto clone = std::make_shared<MscnModel>(base);
  ContinueTraining(clone.get(), train, validation, epochs, history);
  return clone;
}

}  // namespace lc
