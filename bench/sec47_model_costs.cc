// Section 4.7: model costs — training time, prediction latency (single
// query and batched) and serialized model size, for the three MSCN
// feature variants.

#include <iostream>

#include "eval/experiment.h"
#include "eval/report.h"
#include "util/str.h"
#include "util/timer.h"

int main() {
  lc::Experiment experiment;
  std::cout << "=== Section 4.7: Model costs ===\n";
  experiment.PrintSetup(std::cout);

  const lc::Workload& synthetic = experiment.SyntheticWorkload();
  const lc::FeatureVariant variants[] = {lc::FeatureVariant::kNoSamples,
                                         lc::FeatureVariant::kSampleCounts,
                                         lc::FeatureVariant::kBitmaps};

  std::cout << lc::Format("%-22s %14s %14s %16s %16s %16s\n", "variant",
                          "train time", "size on disk", "latency (1 query)",
                          "latency (warm $)", "latency (batched)");
  for (lc::FeatureVariant variant : variants) {
    lc::TrainingHistory history;
    lc::MscnModel& model = experiment.Model(variant, &history);
    lc::MscnEstimator& estimator = experiment.Mscn(variant);

    // Single-query latency over a slice of the synthetic workload (cold:
    // every query misses the result cache).
    const size_t probes = std::min<size_t>(synthetic.size(), 256);
    lc::WallTimer single_timer;
    for (size_t i = 0; i < probes; ++i) {
      estimator.Estimate(synthetic.queries[i]);
    }
    const double single_latency = single_timer.Seconds() / probes;

    // Same probes again: with LC_EST_CACHE enabled these are all hits and
    // skip featurization + the forward pass entirely.
    lc::WallTimer warm_timer;
    for (size_t i = 0; i < probes; ++i) {
      estimator.Estimate(synthetic.queries[i]);
    }
    const double warm_latency = warm_timer.Seconds() / probes;

    // Batched latency (pool-partitioned, cache-free path).
    std::vector<const lc::LabeledQuery*> pointers;
    for (size_t i = 0; i < probes; ++i) {
      pointers.push_back(&synthetic.queries[i]);
    }
    lc::WallTimer batch_timer;
    estimator.EstimateAll(pointers, 256);
    const double batched_latency = batch_timer.Seconds() / probes;

    std::cout << lc::Format(
        "%-22s %14s %14s %16s %16s %16s\n",
        lc::Format("MSCN (%s)", lc::FeatureVariantName(variant)).c_str(),
        lc::HumanSeconds(history.total_seconds).c_str(),
        lc::HumanBytes(model.ToBytes().size()).c_str(),
        lc::HumanSeconds(single_latency).c_str(),
        lc::HumanSeconds(warm_latency).c_str(),
        lc::HumanSeconds(batched_latency).c_str());
    lc::PrintCacheCounters(std::cout, estimator.name(),
                           estimator.cache_counters());
  }

  std::cout << "\npaper (section 4.7): serialized sizes 1.6 MiB / 1.6 MiB / "
               "2.6 MiB for no-samples / #samples / bitmaps at d=256 with "
               "1000-bit bitmaps; ~39 min training (100 epochs, 90k "
               "queries, GPU); prediction in the order of a few ms per "
               "query including framework overhead.\n"
            << "(expected shape: bitmaps variant largest; prediction "
               "latency far below execution cost and independent of "
               "training-set size)\n";
  return 0;
}
