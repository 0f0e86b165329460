// Tests for the section-5 extensions: per-predicate bitmaps ("More
// bitmaps") and incremental training ("Updates").

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "imdb/imdb.h"
#include "workload/generator.h"

namespace lc {
namespace {

ImdbConfig TestConfig() {
  ImdbConfig config;
  config.seed = 91;
  config.num_titles = 2500;
  config.num_companies = 400;
  config.num_persons = 1800;
  config.num_keywords = 500;
  return config;
}

class ExtensionsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(GenerateImdb(TestConfig()));
    executor_ = new Executor(db_);
    samples_ = new SampleSet(db_, 48, 13);
    GeneratorConfig generator_config;
    generator_config.seed = 23;
    QueryGenerator generator(db_, generator_config);
    workload_ = new Workload(
        generator.GenerateLabeled(*executor_, *samples_, 900, "ext-test"));
  }

  static void TearDownTestSuite() {
    delete workload_;
    delete samples_;
    delete executor_;
    delete db_;
  }

  static MscnConfig SmallConfig() {
    MscnConfig config;
    config.hidden_units = 32;
    config.epochs = 12;
    config.batch_size = 64;
    config.seed = 5;
    return config;
  }

  static Database* db_;
  static Executor* executor_;
  static SampleSet* samples_;
  static Workload* workload_;
};

Database* ExtensionsTest::db_ = nullptr;
Executor* ExtensionsTest::executor_ = nullptr;
SampleSet* ExtensionsTest::samples_ = nullptr;
Workload* ExtensionsTest::workload_ = nullptr;

// ---------- Per-predicate bitmaps ----------

TEST_F(ExtensionsTest, LabellingProducesPerPredicateBitmaps) {
  for (size_t i = 0; i < 50; ++i) {
    const LabeledQuery& labeled = workload_->queries[i];
    ASSERT_EQ(labeled.predicate_bitmaps.size(),
              labeled.query.predicates.size());
    // The AND of a table's per-predicate bitmaps equals its conjunction
    // bitmap (definition of the section-5 extension).
    for (size_t t = 0; t < labeled.query.tables.size(); ++t) {
      const TableId table = labeled.query.tables[t];
      BitVector conjunction(labeled.sample_bitmaps[t].size(), true);
      // Restrict the all-ones start to valid sample positions by ANDing
      // with the unconditional bitmap.
      conjunction = conjunction.And(
          samples_->sample(table).QualifyingBitmap({}));
      bool any = false;
      for (size_t p = 0; p < labeled.query.predicates.size(); ++p) {
        if (labeled.query.predicates[p].table != table) continue;
        conjunction = conjunction.And(labeled.predicate_bitmaps[p]);
        any = true;
      }
      if (any) {
        EXPECT_TRUE(conjunction == labeled.sample_bitmaps[t])
            << labeled.query.Serialize();
      }
    }
  }
}

TEST_F(ExtensionsTest, PredicateBitmapVariantWidensPredicateFeatures) {
  const Featurizer base(db_, FeatureVariant::kBitmaps, 48);
  const Featurizer extended(db_, FeatureVariant::kPredicateBitmaps, 48);
  EXPECT_EQ(extended.dims().table_features, base.dims().table_features);
  EXPECT_EQ(extended.dims().predicate_features,
            base.dims().predicate_features + 48);
}

TEST_F(ExtensionsTest, PredicateBitmapFeaturesMatchAnnotations) {
  const Featurizer featurizer(db_, FeatureVariant::kPredicateBitmaps, 48);
  // Find a query with at least two predicates.
  const LabeledQuery* chosen = nullptr;
  for (const LabeledQuery& labeled : workload_->queries) {
    if (labeled.query.predicates.size() >= 2) {
      chosen = &labeled;
      break;
    }
  }
  ASSERT_NE(chosen, nullptr);
  const MscnBatch batch = featurizer.MakeBatch({chosen}, nullptr);
  const Schema& schema = db_->schema();
  const int64_t base = schema.num_predicate_columns() + kNumCompareOps + 1;
  for (size_t p = 0; p < chosen->query.predicates.size(); ++p) {
    const BitVector& bitmap = chosen->predicate_bitmaps[p];
    for (size_t bit = 0; bit < 48; ++bit) {
      EXPECT_EQ(batch.predicates.at(static_cast<int64_t>(p),
                                    base + static_cast<int64_t>(bit)),
                bitmap.Test(bit) ? 1.0f : 0.0f);
    }
  }
}

TEST_F(ExtensionsTest, PredicateBitmapModelTrainsAndRoundTrips) {
  MscnConfig config = SmallConfig();
  config.variant = FeatureVariant::kPredicateBitmaps;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);
  const TrainValSplit split = SplitWorkload(*workload_, 0.1, 3);
  TrainingHistory history;
  MscnModel model = trainer.Train(split.train, split.validation, &history);
  EXPECT_LT(history.epochs.back().validation_mean_qerror, 30.0);

  const auto loaded = MscnModel::FromBytes(model.ToBytes());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->dims() == model.dims());
  EXPECT_EQ(loaded->config().variant, FeatureVariant::kPredicateBitmaps);
}

// ---------- Incremental training ----------

TEST_F(ExtensionsTest, ContinueTrainingImprovesOnNewQueries) {
  MscnConfig config = SmallConfig();
  config.epochs = 8;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);

  // Initial model trained only on 0-1 join queries.
  std::vector<const LabeledQuery*> initial;
  std::vector<const LabeledQuery*> incremental;
  for (const LabeledQuery& labeled : workload_->queries) {
    if (labeled.query.num_joins() <= 1) {
      initial.push_back(&labeled);
    } else {
      incremental.push_back(&labeled);
    }
  }
  ASSERT_GT(initial.size(), 100u);
  ASSERT_GT(incremental.size(), 100u);
  // Hold out a slice of the 2-join queries for evaluation.
  std::vector<const LabeledQuery*> heldout(
      incremental.end() - 60, incremental.end());
  incremental.resize(incremental.size() - 60);

  MscnModel model = trainer.Train(initial, {}, nullptr);
  const double before = trainer.EvaluateMeanQError(&model, heldout);

  TrainingHistory history;
  trainer.ContinueTraining(&model, incremental, heldout, 10, &history);
  const double after = trainer.EvaluateMeanQError(&model, heldout);

  EXPECT_LT(after, before) << "incremental training must adapt the model";
  EXPECT_EQ(history.epochs.size(), 10u);
  EXPECT_EQ(history.epochs.front().epoch, 1);
}

TEST_F(ExtensionsTest, ContinueTrainingKeepsNormalizerFixed) {
  MscnConfig config = SmallConfig();
  config.epochs = 4;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);
  const TrainValSplit split = SplitWorkload(*workload_, 0.2, 15);
  MscnModel model = trainer.Train(split.train, {}, nullptr);
  const double min_log = model.normalizer().min_log();
  const double max_log = model.normalizer().max_log();
  trainer.ContinueTraining(&model, split.validation, {}, 3, nullptr);
  EXPECT_DOUBLE_EQ(model.normalizer().min_log(), min_log);
  EXPECT_DOUBLE_EQ(model.normalizer().max_log(), max_log);
}

}  // namespace
}  // namespace lc
