// Tests for the serving front-end (serve::EstimatorServer) and for the
// race-free cache invalidation protocol under it:
//  - batching: one HandleLines call answers in request order and scores its
//    misses in kMaxBatch chunks, one forward pass each;
//  - graceful shutdown: every line admitted before Shutdown is served, and
//    later lines get a typed rejection;
//  - determinism: server estimates bit-match a direct EstimateAll over the
//    same queries;
//  - protocol: malformed input produces ERR lines, never a crash;
//  - copy-train-swap: a background TrainClone + SwapModel (driven through
//    the ADMIN RETRAIN verb) racing live traffic never exposes a torn
//    model — every response bit-matches a direct EstimateAll against
//    exactly one of the two published models — and post-swap cache
//    entries retire lazily, not via a global wipe (run under TSan in CI).

#include <atomic>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "imdb/imdb.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/str.h"
#include "workload/generator.h"

namespace lc {
namespace {

ImdbConfig SmallImdb() {
  ImdbConfig config;
  config.seed = 91;
  config.num_titles = 1500;
  config.num_companies = 250;
  config.num_persons = 1000;
  config.num_keywords = 300;
  return config;
}

// One trained model + workload shared by every test: training dominates
// the suite's runtime, so pay it once.
class ServeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(GenerateImdb(SmallImdb()));
    executor_ = new Executor(db_);
    samples_ = new SampleSet(db_, 32, 5);

    GeneratorConfig gen_config;
    gen_config.seed = 17;
    QueryGenerator generator(db_, gen_config);
    workload_ = new Workload(
        generator.GenerateLabeled(*executor_, *samples_, 200, "serve-test"));

    MscnConfig config;
    config.hidden_units = 16;
    config.epochs = 3;
    config.batch_size = 32;
    config.seed = 7;
    featurizer_ = new Featurizer(db_, config.variant, samples_->sample_size());
    Trainer trainer(featurizer_, config);
    std::vector<const LabeledQuery*> pointers;
    for (const LabeledQuery& query : workload_->queries) {
      pointers.push_back(&query);
    }
    model_ = new MscnModel(trainer.Train(pointers, {}, nullptr));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete featurizer_;
    delete workload_;
    delete samples_;
    delete executor_;
    delete db_;
    model_ = nullptr;
    featurizer_ = nullptr;
    workload_ = nullptr;
    samples_ = nullptr;
    executor_ = nullptr;
    db_ = nullptr;
  }

  static std::vector<const LabeledQuery*> QueryPointers(size_t count) {
    std::vector<const LabeledQuery*> pointers;
    for (size_t i = 0; i < count && i < workload_->queries.size(); ++i) {
      pointers.push_back(&workload_->queries[i]);
    }
    return pointers;
  }

  static Database* db_;
  static Executor* executor_;
  static SampleSet* samples_;
  static Workload* workload_;
  static Featurizer* featurizer_;
  static MscnModel* model_;
};

// The estimate of an "EST ..." response line, bit-exact (%.17g); any other
// line fails the test and reads as NaN, which equals no estimate.
double EstimateOf(const std::string& line) {
  const StatusOr<double> estimate = serve::ParseEstimate(line);
  EXPECT_TRUE(estimate.ok()) << line;
  return estimate.ok() ? *estimate : std::numeric_limits<double>::quiet_NaN();
}

Database* ServeTest::db_ = nullptr;
Executor* ServeTest::executor_ = nullptr;
SampleSet* ServeTest::samples_ = nullptr;
Workload* ServeTest::workload_ = nullptr;
Featurizer* ServeTest::featurizer_ = nullptr;
MscnModel* ServeTest::model_ = nullptr;

// One HandleLines call is one admission pass plus one forward pass per
// kMaxBatch misses: responses come back in request order whatever each
// line's outcome, and the batch never changes an estimate's bits.
TEST_F(ServeTest, HandleLinesAnswersInOrderAndScoresMissesInMaxBatchChunks) {
  MscnEstimator estimator(featurizer_, model_, "MSCN",
                          /*cache_capacity=*/256);
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);

  const size_t kCount = serve::EstimatorServer::kMaxBatch + 8;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kCount);
  const std::vector<double> direct = estimator.EstimateAll(pointers, 16);
  std::vector<std::string> lines;
  for (size_t i = 0; i < kCount; ++i) {
    lines.push_back(pointers[i]->query.Serialize());
    if (i == 3) lines.push_back("garbage");
    if (i == 20) lines.push_back("ADMIN STATS");
  }

  for (int round = 0; round < 2; ++round) {
    const std::vector<std::string> responses = server.HandleLines(lines);
    ASSERT_EQ(responses.size(), lines.size());
    size_t query = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i] == "garbage") {
        EXPECT_TRUE(StartsWith(responses[i], "ERR Corruption"))
            << responses[i];
      } else if (lines[i] == "ADMIN STATS") {
        EXPECT_TRUE(StartsWith(responses[i], "OK ")) << responses[i];
      } else {
        EXPECT_EQ(EstimateOf(responses[i]), direct[query])
            << "round " << round << ", query " << query;
        EXPECT_NE(responses[i].find(round == 0 ? "cache=miss" : "cache=hit"),
                  std::string::npos)
            << responses[i];
        ++query;
      }
    }
    EXPECT_EQ(query, kCount);
  }

  // Round 1 scored its 40 misses as 32 + 8; round 2 hit the cache for all.
  const serve::Stats stats = server.GetStats();
  EXPECT_EQ(stats.model_batches, 2u);
  EXPECT_EQ(stats.batch_size.max(),
            static_cast<double>(serve::EstimatorServer::kMaxBatch));
  EXPECT_EQ(stats.admission_cache_hits, kCount);
  EXPECT_EQ(stats.served, 2 * kCount);
  EXPECT_EQ(stats.received, 2 * lines.size());
}

TEST_F(ServeTest, GracefulShutdownDrainsAcceptedRequests) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);

  const size_t kCount = 24;
  const size_t kThreads = 4;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kCount);
  const std::vector<double> direct = estimator.EstimateAll(pointers, 8);
  std::vector<std::vector<std::string>> responses(kThreads);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      std::vector<std::string> lines;
      for (size_t i = t; i < kCount; i += kThreads) {
        lines.push_back(pointers[i]->query.Serialize());
      }
      responses[t] = server.HandleLines(lines);
    });
  }
  server.Shutdown();  // Races the callers: every line must still be answered.
  for (std::thread& caller : callers) caller.join();

  // A line admitted before the shutdown is served with its exact estimate;
  // every later line of the same call draws the typed rejection.
  size_t served = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(responses[t].size(), kCount / kThreads) << "caller " << t;
    bool rejected = false;
    for (size_t j = 0; j < responses[t].size(); ++j) {
      const std::string& response = responses[t][j];
      if (StartsWith(response, "EST ")) {
        EXPECT_FALSE(rejected) << "served after a shutdown rejection";
        EXPECT_EQ(EstimateOf(response), direct[t + j * kThreads]);
        ++served;
      } else {
        EXPECT_TRUE(StartsWith(response, "ERR Unavailable")) << response;
        rejected = true;
      }
    }
  }
  const serve::Stats stats = server.GetStats();
  EXPECT_EQ(stats.served, served);
  EXPECT_EQ(stats.served + stats.rejected_shutdown, kCount);

  // Post-shutdown requests get a typed rejection.
  const std::string late = server.HandleLine(pointers[0]->query.Serialize());
  EXPECT_TRUE(StartsWith(late, "ERR Unavailable")) << late;
}

TEST_F(ServeTest, ServerEstimatesBitMatchDirectEstimateAll) {
  MscnEstimator estimator(featurizer_, model_, "MSCN",
                          /*cache_capacity=*/256);
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);

  const size_t kCount = 60;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kCount);
  // EstimateAll bypasses the result cache, so its output is the pure
  // forward-pass ground truth for the same weights.
  const std::vector<double> direct = estimator.EstimateAll(pointers, 16);

  for (size_t i = 0; i < kCount; ++i) {
    const std::string response =
        server.HandleLine(pointers[i]->query.Serialize());
    EXPECT_EQ(EstimateOf(response), direct[i])
        << "server path diverged from EstimateAll at query " << i;
  }
  // A second round hits the cache (admission fast path) and must replay
  // exactly the same bits.
  for (size_t i = 0; i < kCount; ++i) {
    const std::string response =
        server.HandleLine(pointers[i]->query.Serialize());
    EXPECT_NE(response.find("cache=hit"), std::string::npos)
        << "query " << i << ": " << response;
    EXPECT_EQ(EstimateOf(response), direct[i]) << "query " << i;
  }
  const serve::Stats stats = server.GetStats();
  EXPECT_EQ(stats.admission_cache_hits, kCount);
  EXPECT_EQ(stats.served, 2 * kCount);
  // Exactly one counted miss per cold request: the admission probe is the
  // only lookup, and EstimateBatch only inserts.
  const CacheCounters counters = estimator.cache_counters();
  EXPECT_EQ(counters.misses, kCount);
  EXPECT_EQ(counters.insertions, kCount);
}

// A query repeated within one HandleLines call but in a later score chunk
// finds the cache filled by the earlier chunk. Its admission probe has
// already missed, so it is scored again and answered cache=miss: every
// cache=hit response is one the hit counters saw.
TEST_F(ServeTest, RepeatInLaterScoreChunkIsCountedAsItIsAnswered) {
  MscnEstimator estimator(featurizer_, model_, "MSCN",
                          /*cache_capacity=*/256);
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);

  const size_t kMaxBatch = serve::EstimatorServer::kMaxBatch;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kMaxBatch);
  const std::vector<double> direct = estimator.EstimateAll(pointers, 16);
  std::vector<std::string> lines;
  for (const LabeledQuery* query : pointers) {
    lines.push_back(query->query.Serialize());
  }
  lines.push_back(lines[0]);  // Line kMaxBatch: first of the second chunk.

  const std::vector<std::string> responses = server.HandleLines(lines);
  ASSERT_EQ(responses.size(), lines.size());
  size_t hit_responses = 0;
  for (const std::string& response : responses) {
    if (response.find("cache=hit") != std::string::npos) ++hit_responses;
  }
  const serve::Stats stats = server.GetStats();
  EXPECT_EQ(hit_responses, stats.admission_cache_hits);
  EXPECT_NE(server.FormatStatsLine().find(
                lc::Format("cache_hits=%zu ", hit_responses)),
            std::string::npos)
      << server.FormatStatsLine();
  EXPECT_EQ(EstimateOf(responses[kMaxBatch]), EstimateOf(responses[0]));
  EXPECT_EQ(EstimateOf(responses[kMaxBatch]), direct[0]);
}

TEST_F(ServeTest, ProtocolRejectsMalformedInputWithErrLines) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);

  // Structural garbage, strict-parse failures, and schema violations all
  // come back as ERR lines with the typed code name.
  EXPECT_TRUE(StartsWith(server.HandleLine(""), "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(server.HandleLine("   "), "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(server.HandleLine("garbage"), "ERR Corruption"));
  EXPECT_TRUE(StartsWith(server.HandleLine("T:1x|J:|P:"), "ERR Corruption"));
  EXPECT_TRUE(StartsWith(server.HandleLine("T:|J:|P:"), "ERR Corruption"));
  EXPECT_TRUE(
      StartsWith(server.HandleLine("T:9999|J:|P:"), "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(server.HandleLine(std::string(1 << 17, 'x')),
                         "ERR InvalidArgument"));
  // Interior control characters are rejected, and the ERR line never
  // echoes them — one request line always yields exactly one response
  // line, even for hostile input.
  const std::string smuggled = server.HandleLine("T:1\n2|J:|P:");
  EXPECT_TRUE(StartsWith(smuggled, "ERR InvalidArgument")) << smuggled;
  EXPECT_EQ(smuggled.find('\n'), std::string::npos);

  // A valid line serves an estimate that round-trips through the text form.
  const LabeledQuery* query = &workload_->queries[0];
  const std::string line = server.HandleLine(query->query.Serialize());
  const double direct = estimator.EstimateAll({query}, 1)[0];
  EXPECT_EQ(EstimateOf(line), direct);

  const serve::Stats stats = server.GetStats();
  EXPECT_EQ(stats.rejected_malformed, 8u);
  EXPECT_EQ(stats.served, 1u);
}

// The copy-train-swap tentpole: a background clone-train-swap (kicked via
// the ADMIN RETRAIN protocol verb) races live traffic. Under TSan in CI
// this exercises the SwapHandle publication, the version advance, and the
// per-entry retirement; functionally it asserts
//  (a) no torn model: every served estimate bit-matches a direct
//      EstimateAll against exactly one of the two models,
//  (b) traffic keeps flowing while the retrain is in flight (no request
//      blocks on training),
//  (c) stale entries retire lazily (invalidation counter, no wipe), and
//  (d) after the swap, serving converges to the new model's bits.
TEST_F(ServeTest, CopyTrainSwapNeverServesTornModelAndRetiresLazily) {
  auto live = std::make_shared<MscnModel>(*model_);
  MscnEstimator estimator(featurizer_, live, "MSCN",
                          /*cache_capacity=*/256);
  MscnConfig config;
  config.hidden_units = 16;
  config.epochs = 1;
  config.batch_size = 32;
  config.seed = 7;
  Trainer trainer(featurizer_, config);

  const size_t kCount = 40;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kCount);
  // Ground truth per model, from cache-free estimators: the old model's
  // bits now, the new model's bits after the swap below.
  std::vector<double> before(kCount);
  {
    MscnEstimator direct(featurizer_, live, "direct", /*cache_capacity=*/0);
    before = direct.EstimateAll(pointers, 8);
  }

  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);
  std::atomic<size_t> traffic{0};  // Requests served since the kick.
  server.set_retrain_fn([&] {
    // Hold the retrain window open until a few requests have demonstrably
    // been served inside it — makes the "no request blocks on training"
    // assertion below deterministic instead of racing a fast train.
    while (traffic.load(std::memory_order_acquire) < 5) {
      std::this_thread::yield();
    }
    auto fresh =
        trainer.TrainClone(*estimator.model_snapshot(), pointers, {}, 1,
                           nullptr);
    estimator.SwapModel(std::move(fresh));
    return Status::OK();
  });

  // Warm a few entries so the swap has something to retire.
  for (size_t i = 0; i < kCount; ++i) {
    const std::string line = server.HandleLine(pointers[i]->query.Serialize());
    ASSERT_TRUE(StartsWith(line, "EST ")) << line;
  }

  const std::string kicked = server.HandleLine("ADMIN RETRAIN");
  ASSERT_TRUE(StartsWith(kicked, "OK")) << kicked;

  // Drive traffic until the background retrain publishes its swap. Every
  // response must be a whole-model estimate; torn reads would produce a
  // value belonging to neither model. Served-while-training counts
  // prove no request waited for the retrain to finish.
  size_t served_during_retrain = 0;
  std::vector<double> estimates;
  std::vector<size_t> picks;
  size_t i = 0;
  while (server.retrain_in_flight()) {
    const size_t pick = i++ % kCount;
    const std::string line =
        server.HandleLine(pointers[pick]->query.Serialize());
    ASSERT_TRUE(StartsWith(line, "EST ")) << line;
    ++served_during_retrain;
    traffic.fetch_add(1, std::memory_order_release);
    estimates.push_back(EstimateOf(line));
    picks.push_back(pick);
  }
  EXPECT_GT(served_during_retrain, 0u)
      << "no request completed while the clone was training — traffic "
         "stalled on the retrain";
  EXPECT_EQ(server.GetStats().model_swaps, 1u);

  std::vector<double> after(kCount);
  {
    MscnEstimator direct(featurizer_, estimator.model_snapshot(), "direct",
                         /*cache_capacity=*/0);
    after = direct.EstimateAll(pointers, 8);
  }
  size_t changed = 0;
  for (size_t j = 0; j < kCount; ++j) {
    if (before[j] != after[j]) ++changed;
  }
  ASSERT_GT(changed, 0u) << "the retrain did not move the weights; the "
                            "torn-model assertion below would be vacuous";

  for (size_t j = 0; j < estimates.size(); ++j) {
    const double estimate = estimates[j];
    EXPECT_TRUE(estimate == before[picks[j]] || estimate == after[picks[j]])
        << "request " << j << " observed a torn model: " << estimate
        << " matches neither model (" << before[picks[j]] << " / "
        << after[picks[j]] << ")";
  }

  // Post-swap, lookups retire the warmed pre-swap entries one by one (the
  // invalidation counter, not a wipe) and serving settles on the new
  // model's bits exactly.
  for (size_t j = 0; j < kCount; ++j) {
    const std::string line =
        server.HandleLine(pointers[j]->query.Serialize());
    EXPECT_EQ(EstimateOf(line), after[j])
        << "post-swap serving diverged from the new model at query " << j;
  }
  const serve::Stats stats = server.GetStats();
  EXPECT_GT(stats.stale_retirements, 0u)
      << "no stale entry was lazily retired — was the cache wiped?";
  EXPECT_EQ(stats.retrains_started, 1u);
  EXPECT_EQ(stats.retrains_failed, 0u);
}

TEST_F(ServeTest, AdminProtocolVerbs) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_);

  // STATS always answers one OK line.
  const std::string stats_line = server.HandleLine("ADMIN STATS");
  EXPECT_TRUE(StartsWith(stats_line, "OK ")) << stats_line;
  EXPECT_NE(stats_line.find("swaps="), std::string::npos) << stats_line;

  // RETRAIN without a hook is a typed error, not a crash.
  EXPECT_TRUE(StartsWith(server.HandleLine("ADMIN RETRAIN"),
                         "ERR Unimplemented"));
  // Unknown or malformed admin input is rejected like any hostile line.
  EXPECT_TRUE(StartsWith(server.HandleLine("ADMIN BOGUS"),
                         "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(server.HandleLine("ADMIN "),
                         "ERR InvalidArgument"));
  EXPECT_TRUE(StartsWith(server.HandleLine("ADMIN retrain now"),
                         "ERR InvalidArgument"));

  // Only one retrain may be in flight: with a hook that blocks until
  // released, the second RETRAIN answers Unavailable instead of queueing.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server.set_retrain_fn([released] {
    released.wait();
    return Status::OK();
  });
  EXPECT_TRUE(StartsWith(server.HandleLine("ADMIN RETRAIN"), "OK"));
  EXPECT_TRUE(StartsWith(server.HandleLine("ADMIN RETRAIN"),
                         "ERR Unavailable"));
  release.set_value();
  while (server.retrain_in_flight()) std::this_thread::yield();
  const serve::Stats stats = server.GetStats();
  EXPECT_EQ(stats.retrains_started, 1u);
  EXPECT_EQ(stats.model_swaps, 1u);
  EXPECT_EQ(stats.admin_requests, 7u);
}

}  // namespace
}  // namespace lc
