// The `train` workload and the labelling/training replay. `train` calls the
// layers directly: label a seed-derived corpus with the executor
// (QueryGenerator::GenerateLabeled), fit MSCN for a fixed number of epochs
// (Trainer::Train), score the synthetic and JOB-light workloads against the
// executor's true cardinalities, then publish the model with SwapModel and
// serve the evaluation queries over the socket, each answer checked
// bit-identical to EstimateAll of the new model.

#include <cmath>
#include <unordered_set>

#include "bench.h"
#include "core/trainer.h"
#include "nn/adam.h"
#include "util/str.h"
#include "workload/generator.h"

namespace lcbench {
namespace {

// Minimum time spent measuring the scoring paths per repetition.
constexpr double kScoringSeconds = 0.2;

struct Scoring {
  std::vector<double> batch_qps;  // Per EstimateAll call, queries/s.
  std::vector<double> single_us;  // Single-query Estimate latencies.
};

// The estimation cost of paper section 4.7: batch throughput and
// single-query latency, on a cache-less estimator over `model`.
Scoring MeasureScoring(ServingState& state, lc::MscnModel* model,
                       const std::vector<const lc::LabeledQuery*>& queries) {
  lc::MscnEstimator estimator(&state.featurizer, model, "scoring",
                              /*cache_capacity=*/0);
  Scoring scoring;
  const Clock::time_point batch_start = Clock::now();
  while (SecondsSince(batch_start) < kScoringSeconds) {
    const Clock::time_point start = Clock::now();
    const size_t scored = estimator.EstimateAll(queries, 128).size();
    scoring.batch_qps.push_back(scored / SecondsSince(start));
  }
  const Clock::time_point single_start = Clock::now();
  while (SecondsSince(single_start) < kScoringSeconds) {
    for (const lc::LabeledQuery* query : queries) {
      const Clock::time_point start = Clock::now();
      estimator.Estimate(*query);
      scoring.single_us.push_back(MicrosBetween(start, Clock::now()));
    }
  }
  return scoring;
}

}  // namespace

void TraceLabelAndTrain(const Options& options, ServingState& state,
                        const lc::Workload& corpus, int epochs,
                        Metrics* metrics, Tracer* tracer) {
  Tracer replay(true);
  // Labelling: GenerateLabeled's candidate loop (draw, deduplicate, count,
  // annotate, drop empty results), one candidate at a time.
  lc::GeneratorConfig config;
  config.seed = StreamSeed(options.seed, Stream::kLabelReplay);
  lc::QueryGenerator generator(&state.db, config);
  std::unordered_set<std::string> seen;
  const size_t target = std::min<size_t>(corpus.size(), 300);
  size_t attempted = 0, accepted = 0;
  while (accepted < target && attempted < target * 200) {
    const ScopedSpan candidate(&replay, "label.candidate", attempted++);
    const lc::Query query = generator.Generate();
    if (!seen.insert(query.CanonicalKey()).second) continue;
    int64_t cardinality = 0;
    {
      const ScopedSpan span(&replay, "exec.count", attempted, candidate.id());
      cardinality = state.executor.Cardinality(query);
    }
    {
      const ScopedSpan span(&replay, "sample.bitmap", attempted,
                            candidate.id());
      lc::LabelQuery(query, nullptr, state.samples);
    }
    if (cardinality > 0) ++accepted;
  }

  // Training: Trainer's mini-batch step, phase by phase, on a copy of the
  // model (the trainer overlaps featurization on a producer thread; the
  // replay runs the phases in sequence to time each).
  lc::MscnModel model = *state.model;
  lc::AdamConfig adam_config;
  adam_config.learning_rate =
      static_cast<float>(model.config().learning_rate);
  lc::Adam adam(model.parameters(), adam_config);
  const lc::TargetNormalizer& normalizer = model.normalizer();
  const float log_range = normalizer.LogRange();
  const std::vector<const lc::LabeledQuery*> queries = QueryPointers(corpus);
  const size_t batch = static_cast<size_t>(model.config().batch_size);
  const int replay_epochs = std::min(epochs, 2);
  lc::Tape tape;
  for (int epoch = 0; epoch < replay_epochs; ++epoch) {
    const ScopedSpan epoch_span(&replay, "train.epoch", epoch);
    for (size_t begin = 0; begin < queries.size(); begin += batch) {
      const std::vector<const lc::LabeledQuery*> slice(
          queries.begin() + begin,
          queries.begin() + std::min(queries.size(), begin + batch));
      lc::MscnBatch mscn_batch;
      lc::Tape::NodeId loss = 0;
      {
        const ScopedSpan span(&replay, "train.featurize", begin,
                              epoch_span.id());
        mscn_batch = state.featurizer.MakeBatch(slice, &normalizer);
      }
      {
        const ScopedSpan span(&replay, "train.forward", begin,
                              epoch_span.id());
        tape.Reset();
        const lc::Tape::NodeId prediction = model.Forward(&tape, mscn_batch);
        loss = tape.MeanQErrorLoss(prediction, mscn_batch.targets, log_range);
      }
      {
        const ScopedSpan span(&replay, "train.backward", begin,
                              epoch_span.id());
        adam.ZeroGrad();
        tape.Backward(loss);
      }
      const ScopedSpan span(&replay, "train.adam", begin, epoch_span.id());
      adam.Step();
    }
  }

  std::map<std::string, lc::RunningStat> self = replay.SelfTimes();
  const auto per_epoch_s = [&](const char* name) {
    return self[name].sum() / replay_epochs * 1e-6;
  };
  metrics->Set("train.featurize_s", per_epoch_s("train.featurize"), "s");
  metrics->Set("train.forward_s", per_epoch_s("train.forward"), "s");
  metrics->Set("train.backward_s", per_epoch_s("train.backward"), "s");
  metrics->Set("train.adam_s", per_epoch_s("train.adam"), "s");
  metrics->Set("exec.count_us", self["exec.count"].mean(), "us");
  metrics->Set("sample.bitmap_us", self["sample.bitmap"].mean(), "us");
  metrics->Set("label.accept_ratio",
               attempted == 0 ? 0.0
                              : static_cast<double>(accepted) / attempted,
               "ratio");
  metrics->Note(lc::Format(
      "label replay: %zu accepted of %zu candidates; train replay: %d "
      "epoch(s) over %zu queries, phases run in sequence",
      accepted, attempted, replay_epochs, queries.size()));
  tracer->Absorb(replay);
}

void RunTrain(const Options& options, ServingState& state, Metrics* metrics,
              Verdict* verdict, Tracer* tracer) {
  std::vector<const lc::LabeledQuery*> eval = QueryPointers(state.synthetic);
  for (const lc::LabeledQuery& query : state.job_light.queries) {
    eval.push_back(&query);
  }
  std::vector<std::string> eval_texts;
  for (const lc::LabeledQuery* query : eval) {
    eval_texts.push_back(query->query.Serialize());
  }

  // Per repetition: label/train times, single-query p50 and goodput; per
  // EstimateAll call: throughput. Reported with BestTime/BestRate over
  // samples spread across the whole run.
  std::vector<double> label_s, train_s, batch_qps, single_p50, goodput;
  EvalErrors pooled;  // Errors of the first min_reps models, together.
  lc::Workload corpus;
  uint64_t served = 0, served_ok = 0;
  size_t single_samples = 0;
  const Clock::time_point start = Clock::now();
  // The traced run needs one repetition for its replays.
  const int min_reps = options.trace ? 1 : options.sizes.train_min_reps;
  for (int rep = 0; rep < min_reps ||
                    (!options.trace && SecondsSince(start) < options.seconds);
       ++rep) {
    const ScopedSpan rep_span(tracer, "train.repetition", rep);
    lc::GeneratorConfig config;
    config.seed = StreamSeed(options.seed, Stream::kTrainCorpus,
                             static_cast<uint64_t>(rep));
    lc::QueryGenerator generator(&state.db, config);
    Clock::time_point phase = Clock::now();
    {
      const ScopedSpan span(tracer, "train.label", rep, rep_span.id());
      corpus = generator.GenerateLabeled(state.executor, state.samples,
                                         options.sizes.train_corpus,
                                         "training");
    }
    label_s.push_back(SecondsSince(phase));

    phase = Clock::now();
    lc::MscnConfig mscn;
    mscn.epochs = options.sizes.train_epochs;
    lc::Trainer trainer(&state.featurizer, mscn);
    std::shared_ptr<lc::MscnModel> model;
    {
      const ScopedSpan span(tracer, "train.fit", rep, rep_span.id());
      model = std::make_shared<lc::MscnModel>(
          trainer.Train(QueryPointers(corpus), {}, nullptr));
    }
    train_s.push_back(SecondsSince(phase));

    // q-errors against the executor's true cardinalities, pooled over the
    // first min_reps models, so the values depend on the seed alone.
    if (rep < min_reps) {
      const EvalErrors errors = ScoreErrors(state, model.get());
      pooled.synthetic.insert(pooled.synthetic.end(),
                              errors.synthetic.begin(),
                              errors.synthetic.end());
      pooled.job_light.insert(pooled.job_light.end(),
                              errors.job_light.begin(),
                              errors.job_light.end());
    }

    // Publish and serve: every answer must equal EstimateAll of the new
    // model (SwapModel retires the old model's cache entries).
    lc::MscnEstimator direct(&state.featurizer, model.get(), "direct",
                             /*cache_capacity=*/0);
    std::vector<double> expected = direct.EstimateAll(eval, 64);
    if (options.inject_fault) {
      expected[0] = std::nextafter(expected[0], 0.0);
    }
    state.estimator->SwapModel(model);
    state.model = model;
    served += eval_texts.size();
    served_ok += ServeOnce(state, eval_texts, expected, verdict);

    const Scoring scoring = MeasureScoring(state, model.get(), eval);
    batch_qps.insert(batch_qps.end(), scoring.batch_qps.begin(),
                     scoring.batch_qps.end());
    single_p50.push_back(lc::Quantile(scoring.single_us, 0.5));
    double total_us = 0.0, in_limit = 0.0;
    for (const double us : scoring.single_us) {
      total_us += us;
      in_limit += us <= kLatencyLimitUs ? 1.0 : 0.0;
    }
    goodput.push_back(in_limit / (total_us * 1e-6));
    single_samples += scoring.single_us.size();
  }

  if (options.trace) {
    TraceLabelAndTrain(options, state, corpus, options.sizes.train_epochs,
                       metrics, tracer);
    // The serving layers, on the model this run trained: a short traced
    // miss_closed load.
    Options serve = options;
    serve.seconds = std::max(2.0, options.seconds / 4);
    RunMissClosed(serve, state, metrics, verdict, tracer);
    return;
  }
  const QErrors qerrors = Summarize(pooled);
  metrics->Set("label_s", BestTime(label_s), "s");
  metrics->Set("train_s", BestTime(train_s), "s");
  metrics->Set("qerr_p50", qerrors.p50, "ratio");
  metrics->Set("qerr_p95", qerrors.p95, "ratio");
  metrics->Set("qerr_joblight_p50", qerrors.joblight_p50, "ratio");
  metrics->Set("qps", BestRate(batch_qps), "1/s");
  metrics->Set("lat_p50_us", BestTime(single_p50), "us");
  metrics->Set("success_frac",
               served == 0 ? 0.0 : static_cast<double>(served_ok) / served,
               "ratio");
  metrics->Set("slo_qps", BestRate(goodput), "1/s");
  metrics->Note(lc::Format(
      "train: %zu repetitions of %zu queries x %d epochs; q-errors pool the "
      "first %d models; %zu single-query latency samples",
      label_s.size(), options.sizes.train_corpus, options.sizes.train_epochs,
      min_reps, single_samples));
}

}  // namespace lcbench
