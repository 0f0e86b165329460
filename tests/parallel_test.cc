// Tests for the concurrency substrate (util/parallel.h, util/lru_cache.h)
// and for the determinism guarantees of the layers built on it: parallel
// workload labelling, the pipelined trainer, and batched estimation must
// produce bit-identical results for every worker count.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "imdb/imdb.h"
#include "util/lru_cache.h"
#include "util/parallel.h"
#include "workload/generator.h"

namespace lc {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(&pool, 0, touched.size(), 7,
              [&](size_t i) { touched[i].fetch_add(1); });
  for (const std::atomic<int>& count : touched) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, StaticPartitionIsIndependentOfWorkerCount) {
  // Shard boundaries must depend only on (begin, end, grain) so per-shard
  // seeded state reproduces across pools.
  auto partition_of = [](ThreadPool* pool) {
    std::vector<std::pair<size_t, size_t>> shards(13);
    ParallelForShards(pool, 5, 122, 10,
                      [&](size_t shard, size_t lo, size_t hi) {
                        shards[shard] = {lo, hi};
                      });
    return shards;
  };
  ThreadPool single(0);
  ThreadPool wide(4);
  EXPECT_EQ(partition_of(&single), partition_of(&wide));
  EXPECT_EQ(partition_of(nullptr), partition_of(&wide));
}

TEST(ParallelForTest, DeterministicResultAcrossPools) {
  auto run = [](ThreadPool* pool) {
    std::vector<uint64_t> out(5000);
    ParallelFor(pool, 0, out.size(), 64,
                [&](size_t i) { out[i] = i * 2654435761u; });
    return out;
  };
  ThreadPool pool(3);
  EXPECT_EQ(run(nullptr), run(&pool));
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 3, 3, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  ParallelFor(&pool, 0, 1, 100, [&](size_t) { one.fetch_add(1); });
  EXPECT_EQ(one.load(), 1);
}

TEST(ParallelForTest, NestedSectionsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(&pool, 0, 8, 1, [&](size_t) {
    ParallelFor(&pool, 0, 16, 1, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 100, 1,
                  [](size_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, FailsFastAfterFirstException) {
  // After a shard throws, unstarted shards must be skipped, not executed.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  std::atomic<bool> first{true};
  EXPECT_THROW(ParallelForShards(&pool, 0, 10000, 1,
                                 [&](size_t, size_t, size_t) {
                                   executed.fetch_add(1);
                                   if (first.exchange(false)) {
                                     throw std::runtime_error("early");
                                   }
                                 }),
               std::runtime_error);
  // The very first body execution throws; only shards already in flight
  // on other lanes during that window may still run.
  EXPECT_LT(executed.load(), 10000);
}

TEST(ParallelInvokeTest, RunsEveryTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back([&ran] { ran.fetch_add(1); });
  ParallelInvoke(&pool, std::move(tasks));
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(BoundedQueueTest, FifoThroughOneProducer) {
  BoundedQueue<int> queue(4);
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(queue.Push(i));
    queue.Close();
  });
  int expected = 0;
  int value = 0;
  while (queue.Pop(&value)) EXPECT_EQ(value, expected++);
  EXPECT_EQ(expected, 100);
  producer.join();
}

TEST(BoundedQueueTest, ManyProducersManyConsumersPreserveMultiset) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2500;
  BoundedQueue<int64_t> queue(8);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(static_cast<int64_t>(p) * kPerProducer + i));
      }
    });
  }
  std::vector<int64_t> sums(kConsumers, 0);
  std::vector<int64_t> counts(kConsumers, 0);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &sums, &counts, c] {
      int64_t value = 0;
      while (queue.Pop(&value)) {
        sums[static_cast<size_t>(c)] += value;
        ++counts[static_cast<size_t>(c)];
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  queue.Close();
  for (std::thread& consumer : consumers) consumer.join();

  const int64_t total_items = kProducers * kPerProducer;
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}),
            total_items);
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), int64_t{0}),
            total_items * (total_items - 1) / 2);
}

TEST(BoundedQueueTest, CloseFailsPushesAndDrainsPops) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_FALSE(queue.Push(3));
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 1);
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 2);
  EXPECT_FALSE(queue.Pop(&value));
}

TEST(BoundedQueueTest, CloseUnblocksWaitingConsumer) {
  BoundedQueue<int> queue(1);
  std::thread consumer([&] {
    int value = 0;
    EXPECT_FALSE(queue.Pop(&value));  // Blocks until Close.
  });
  queue.Close();
  consumer.join();
}

// Regression pin for the drain pattern (multi-producer,
// multi-consumer, Close racing with both sides): every Push that reported
// acceptance must be observed by exactly one Pop — Close stops
// admission but never drops queued items.
TEST(BoundedQueueTest, CloseNeverDropsAcceptedItemsUnderMpmcRace) {
  BoundedQueue<int> queue(8);
  std::atomic<uint64_t> accepted_count{0};
  std::atomic<uint64_t> accepted_sum{0};

  std::vector<std::thread> producers;
  for (int producer = 0; producer < 4; ++producer) {
    producers.emplace_back([&, producer] {
      for (int i = 0; i < 500; ++i) {
        const int value = producer * 1000 + i;
        if (!queue.Push(value)) return;  // Close landed mid-stream.
        accepted_count.fetch_add(1);
        accepted_sum.fetch_add(static_cast<uint64_t>(value));
      }
    });
  }

  std::atomic<uint64_t> popped_count{0};
  std::atomic<uint64_t> popped_sum{0};
  std::vector<std::thread> consumers;
  for (int consumer = 0; consumer < 3; ++consumer) {
    consumers.emplace_back([&] {
      int value = 0;
      while (queue.Pop(&value)) {
        popped_count.fetch_add(1);
        popped_sum.fetch_add(static_cast<uint64_t>(value));
      }
    });
  }

  // Close while producers are mid-stream and consumers are mid-drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.Close();
  for (std::thread& producer : producers) producer.join();
  for (std::thread& consumer : consumers) consumer.join();

  EXPECT_EQ(popped_count.load(), accepted_count.load());
  EXPECT_EQ(popped_sum.load(), accepted_sum.load());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducers) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));  // Queue now full.
  std::vector<std::thread> producers;
  for (int producer = 0; producer < 3; ++producer) {
    producers.emplace_back([&] {
      EXPECT_FALSE(queue.Push(2));  // Blocks on full until Close.
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.Close();
  for (std::thread& producer : producers) producer.join();
  // The item accepted before Close still drains.
  int value = 0;
  EXPECT_TRUE(queue.Pop(&value));
  EXPECT_EQ(value, 1);
  EXPECT_FALSE(queue.Pop(&value));
}

TEST(ShardedLruCacheTest, HitMissAndEviction) {
  ShardedLruCache<uint64_t, double> cache(4, /*num_shards=*/1);
  double value = 0.0;
  EXPECT_FALSE(cache.Lookup(1, &value));
  cache.Insert(1, 10.0);
  cache.Insert(2, 20.0);
  cache.Insert(3, 30.0);
  cache.Insert(4, 40.0);
  ASSERT_TRUE(cache.Lookup(1, &value));  // 1 becomes most-recent.
  EXPECT_EQ(value, 10.0);
  cache.Insert(5, 50.0);  // Evicts 2, the least-recent.
  EXPECT_FALSE(cache.Lookup(2, &value));
  EXPECT_TRUE(cache.Lookup(1, &value));
  EXPECT_TRUE(cache.Lookup(5, &value));

  const CacheCounters counters = cache.counters();
  EXPECT_EQ(counters.insertions, 5u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.hits, 3u);
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.invalidations, 0u);
  EXPECT_GT(counters.HitRate(), 0.5);
}

TEST(ShardedLruCacheTest, LookupValidRetiresStaleEntriesIndividually) {
  // The lazy-retirement primitive under copy-train-swap: a stale entry is
  // erased by the lookup that discovers it (counted as an invalidation,
  // distinct from capacity evictions) — there is no global wipe.
  ShardedLruCache<int, int> cache(8, /*num_shards=*/1);
  for (int key = 0; key < 4; ++key) cache.Insert(key, 100 + key);

  const auto is_even = [](const int& value) { return value % 2 == 0; };
  int value = 0;
  ASSERT_TRUE(cache.LookupValid(0, &value, is_even));
  EXPECT_EQ(value, 100);
  // 101 fails the predicate: retired at this lookup, counted as a miss
  // plus an invalidation, and gone afterwards (a re-insert is fresh).
  EXPECT_FALSE(cache.LookupValid(1, &value, is_even));
  EXPECT_EQ(cache.size(), 3u);
  cache.Insert(1, 200);
  ASSERT_TRUE(cache.LookupValid(1, &value, is_even));
  EXPECT_EQ(value, 200);
  // 103 is retired the same way.
  EXPECT_FALSE(cache.LookupValid(3, &value, is_even));
  EXPECT_EQ(cache.size(), 3u);

  const CacheCounters counters = cache.counters();
  EXPECT_EQ(counters.invalidations, 2u);
  EXPECT_EQ(counters.evictions, 0u)
      << "stale retirements must not masquerade as capacity evictions";
  EXPECT_EQ(counters.hits, 2u);
  EXPECT_EQ(counters.misses, 2u);
}

TEST(ShardedLruCacheTest, ConcurrentMixedWorkloadStaysConsistent) {
  ShardedLruCache<uint64_t, uint64_t> cache(256);
  ThreadPool pool(4);
  ParallelFor(&pool, 0, 20000, 64, [&](size_t i) {
    const uint64_t key = i % 512;
    uint64_t value = 0;
    if (cache.Lookup(key, &value)) {
      EXPECT_EQ(value, key * 3);  // Values never change per key.
    } else {
      cache.Insert(key, key * 3);
    }
  });
  EXPECT_LE(cache.size(), cache.capacity());
  const CacheCounters counters = cache.counters();
  EXPECT_EQ(counters.lookups(), 20000u);
}

// --- End-to-end determinism over the real pipeline -----------------------

ImdbConfig SmallImdb() {
  ImdbConfig config;
  config.seed = 77;
  config.num_titles = 1500;
  config.num_companies = 250;
  config.num_persons = 1000;
  config.num_keywords = 300;
  return config;
}

class ParallelPipelineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(GenerateImdb(SmallImdb()));
    executor_ = new Executor(db_);
    samples_ = new SampleSet(db_, 32, 5);
  }
  static void TearDownTestSuite() {
    delete samples_;
    delete executor_;
    delete db_;
    samples_ = nullptr;
    executor_ = nullptr;
    db_ = nullptr;
  }

  static Database* db_;
  static Executor* executor_;
  static SampleSet* samples_;
};

Database* ParallelPipelineTest::db_ = nullptr;
Executor* ParallelPipelineTest::executor_ = nullptr;
SampleSet* ParallelPipelineTest::samples_ = nullptr;

TEST_F(ParallelPipelineTest, LabelledWorkloadBitIdenticalAcrossPools) {
  GeneratorConfig config;
  config.seed = 9;
  // Two calls per generator: the second starts from the post-overshoot
  // rng/dedup state, which must also be identical for every pool (wave
  // sizing may not depend on the lane count).
  auto generate = [&](ThreadPool* pool) {
    QueryGenerator generator(db_, config);
    std::string first =
        generator.GenerateLabeled(*executor_, *samples_, 150, "det-a", pool)
            .Serialize();
    std::string second =
        generator.GenerateLabeled(*executor_, *samples_, 50, "det-b", pool)
            .Serialize();
    return first + second;
  };
  ThreadPool sequential(0);
  ThreadPool wide(3);
  const std::string baseline = generate(&sequential);
  EXPECT_EQ(baseline, generate(&wide));
  EXPECT_EQ(baseline, generate(nullptr));
}

TEST_F(ParallelPipelineTest, TrainerLossCurveIdenticalWithAndWithoutPipeline) {
  GeneratorConfig gen_config;
  gen_config.seed = 21;
  QueryGenerator generator(db_, gen_config);
  const Workload workload =
      generator.GenerateLabeled(*executor_, *samples_, 400, "train-parallel");
  const TrainValSplit split = SplitWorkload(workload, 0.15, 7);

  MscnConfig config;
  config.hidden_units = 16;
  config.epochs = 6;
  config.batch_size = 32;
  config.seed = 5;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());

  auto train_curve = [&](bool pipelined) {
    Trainer trainer(&featurizer, config);
    trainer.set_pipeline_featurization(pipelined);
    TrainingHistory history;
    trainer.Train(split.train, split.validation, &history);
    return history;
  };
  const TrainingHistory synchronous = train_curve(false);
  const TrainingHistory pipelined = train_curve(true);

  ASSERT_EQ(synchronous.epochs.size(), pipelined.epochs.size());
  for (size_t i = 0; i < synchronous.epochs.size(); ++i) {
    // Bit-identical: the pipelined loop runs the same batches through the
    // same update math, only overlapped with featurization.
    EXPECT_EQ(synchronous.epochs[i].train_loss,
              pipelined.epochs[i].train_loss)
        << "epoch " << i;
    EXPECT_EQ(synchronous.epochs[i].validation_mean_qerror,
              pipelined.epochs[i].validation_mean_qerror)
        << "epoch " << i;
  }
}

TEST_F(ParallelPipelineTest, EstimateAllIdenticalAcrossPoolsAndMatchesSingle) {
  GeneratorConfig gen_config;
  gen_config.seed = 33;
  QueryGenerator generator(db_, gen_config);
  const Workload workload =
      generator.GenerateLabeled(*executor_, *samples_, 300, "serve-parallel");

  MscnConfig config;
  config.hidden_units = 16;
  config.epochs = 3;
  config.batch_size = 32;
  config.seed = 11;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);
  std::vector<const LabeledQuery*> pointers;
  for (const LabeledQuery& query : workload.queries) {
    pointers.push_back(&query);
  }
  MscnModel model = trainer.Train(pointers, {}, nullptr);

  MscnEstimator estimator(&featurizer, &model, "MSCN",
                          /*cache_capacity=*/0);
  ThreadPool wide(3);
  const std::vector<double> sequential =
      estimator.EstimateAll(pointers, 64, nullptr);
  const std::vector<double> parallel =
      estimator.EstimateAll(pointers, 64, &wide);
  ASSERT_EQ(sequential.size(), pointers.size());
  EXPECT_EQ(sequential, parallel);  // Bit-identical across worker counts.

  // Batched scoring matches the one-query-at-a-time path closely (padding
  // rows are zero and masked, so they cannot perturb a query's forward
  // pass beyond kernel summation-order effects).
  for (size_t i = 0; i < pointers.size(); ++i) {
    const double single = estimator.Estimate(*pointers[i]);
    EXPECT_NEAR(sequential[i], single,
                1e-6 * std::max(1.0, std::abs(single)))
        << "query " << i;
  }
}

TEST_F(ParallelPipelineTest, EstimatorCacheHitsReturnIdenticalEstimates) {
  GeneratorConfig gen_config;
  gen_config.seed = 41;
  QueryGenerator generator(db_, gen_config);
  const Workload workload =
      generator.GenerateLabeled(*executor_, *samples_, 60, "cache-test");

  MscnConfig config;
  config.hidden_units = 16;
  config.epochs = 2;
  config.batch_size = 32;
  config.seed = 13;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);
  std::vector<const LabeledQuery*> pointers;
  for (const LabeledQuery& query : workload.queries) {
    pointers.push_back(&query);
  }
  MscnModel model = trainer.Train(pointers, {}, nullptr);

  MscnEstimator estimator(&featurizer, &model, "MSCN",
                          /*cache_capacity=*/128);
  std::vector<double> cold;
  for (const LabeledQuery* query : pointers) {
    cold.push_back(estimator.Estimate(*query));
  }
  EXPECT_EQ(estimator.cache_counters().hits, 0u);
  std::vector<double> warm;
  for (const LabeledQuery* query : pointers) {
    warm.push_back(estimator.Estimate(*query));
  }
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(estimator.cache_counters().hits, pointers.size());
  EXPECT_EQ(estimator.cache_counters().misses, pointers.size());

  // Publishing a retrained clone advances the publication version; the
  // next Estimate must retire the stale entry and serve the new model's
  // value.
  std::shared_ptr<MscnModel> retrained =
      trainer.TrainClone(model, pointers, {}, 1, nullptr);
  estimator.SwapModel(retrained);
  MscnEstimator fresh(&featurizer, retrained, "MSCN", /*cache_capacity=*/0);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(estimator.Estimate(*pointers[i]), fresh.Estimate(*pointers[i]))
        << "stale cached estimate after SwapModel, query " << i;
  }
  EXPECT_EQ(estimator.cache_counters().invalidations, 5u);
}

}  // namespace
}  // namespace lc
