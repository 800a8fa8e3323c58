#include "retrieval/qbe.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/model_builder.h"
#include "test_util.h"

namespace hmmm {
namespace {

class QbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::SmallSoccerCatalog();
    ModelBuilderOptions options;
    options.learn_feature_weights = true;
    auto model = ModelBuilder(catalog_, options).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
};

TEST_F(QbeTest, ModelStoresNormalizerParameters) {
  EXPECT_EQ(model_.feature_minima().size(), 8u);
  EXPECT_EQ(model_.feature_maxima().size(), 8u);
  // Raw features in the small catalog are 0.1 / 0.9 per column.
  EXPECT_DOUBLE_EQ(model_.feature_minima()[0], 0.1);
  EXPECT_DOUBLE_EQ(model_.feature_maxima()[0], 0.9);
}

TEST_F(QbeTest, NormalizeFeaturesAppliesEquation3) {
  auto normalized = model_.NormalizeFeatures(
      {0.5, 0.1, 0.9, 0.5, 0.5, 0.5, 0.5, 0.5});
  ASSERT_TRUE(normalized.ok());
  EXPECT_DOUBLE_EQ((*normalized)[0], 0.5);
  EXPECT_DOUBLE_EQ((*normalized)[1], 0.0);
  EXPECT_DOUBLE_EQ((*normalized)[2], 1.0);
  // Out-of-range raw values clamp.
  auto clamped = model_.NormalizeFeatures(
      {2.0, -1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5});
  ASSERT_TRUE(clamped.ok());
  EXPECT_DOUBLE_EQ((*clamped)[0], 1.0);
  EXPECT_DOUBLE_EQ((*clamped)[1], 0.0);
}

TEST_F(QbeTest, NormalizeFeaturesValidatesWidth) {
  EXPECT_FALSE(model_.NormalizeFeatures({0.5}).ok());
}

TEST_F(QbeTest, NormalizerParametersSurviveSerialization) {
  auto restored = HierarchicalModel::Deserialize(model_.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->feature_minima(), model_.feature_minima());
  EXPECT_EQ(restored->feature_maxima(), model_.feature_maxima());
}

TEST_F(QbeTest, ExampleRetrievesMatchingShots) {
  QbeMatcher matcher(model_);
  // A raw example that looks like a goal shot (feature 0 hot).
  std::vector<double> example(8, 0.1);
  example[0] = 0.9;
  auto results = matcher.Retrieve(example);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // Top results must be the goal-annotated shots (2, 4, 7).
  const ShotId top = results->front().shot;
  EXPECT_TRUE(catalog_.shot(top).HasEvent(0)) << "top shot " << top;
}

TEST_F(QbeTest, ResultsSortedAndTruncated) {
  QbeOptions options;
  options.max_results = 3;
  QbeMatcher matcher(model_, options);
  auto results = matcher.Retrieve(std::vector<double>(8, 0.5));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 3u);
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_GE((*results)[i - 1].similarity, (*results)[i].similarity);
  }
}

TEST_F(QbeTest, SimilarToExcludesProbe) {
  QbeMatcher matcher(model_);
  auto results = matcher.RetrieveSimilarTo(4);  // a goal shot
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const QbeResult& r : *results) {
    EXPECT_NE(r.shot, 4);
  }
  // The most similar shot to a goal shot is another goal shot.
  EXPECT_TRUE(catalog_.shot(results->front().shot).HasEvent(0));
}

TEST_F(QbeTest, SimilarToRejectsNonStates) {
  QbeMatcher matcher(model_);
  EXPECT_FALSE(matcher.RetrieveSimilarTo(1).ok());    // un-annotated shot
  EXPECT_FALSE(matcher.RetrieveSimilarTo(999).ok());  // unknown shot
}

TEST_F(QbeTest, FeatureSubsetRestricts) {
  QbeOptions options;
  options.feature_subset = {2};  // only the free_kick indicator feature
  QbeMatcher matcher(model_, options);
  std::vector<double> example(8, 0.1);
  example[2] = 0.9;
  auto results = matcher.Retrieve(example);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(catalog_.shot(results->front().shot).HasEvent(2));
}

TEST_F(QbeTest, EventWeightedSimilarity) {
  QbeOptions options;
  options.weight_event = 0;  // use goal's learned P12 row
  QbeMatcher matcher(model_, options);
  std::vector<double> example(8, 0.1);
  example[0] = 0.9;
  auto results = matcher.Retrieve(example);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
}

TEST_F(QbeTest, WidthMismatchRejected) {
  QbeMatcher matcher(model_);
  EXPECT_FALSE(matcher.Retrieve({0.5, 0.5}).ok());
}

TEST_F(QbeTest, NonFiniteFeaturesRejected) {
  QbeMatcher matcher(model_);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::vector<double> example(8, 0.5);
    example[3] = bad;
    EXPECT_EQ(model_.NormalizeFeatures(example).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(matcher.Retrieve(example).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// The kept top K is the prefix of the full ranking, and the full ranking
// orders by similarity descending with ties in state order (the small
// catalog's shots with equal annotations have equal features, so ties
// are real).
TEST_F(QbeTest, TopKIsThePrefixOfTheFullStateOrder) {
  const VideoCatalog generated = testing::GeneratedSoccerCatalog(9, 6);
  auto generated_model = ModelBuilder(generated).Build();
  ASSERT_TRUE(generated_model.ok());
  for (const HierarchicalModel* model : {&model_, &*generated_model}) {
    const size_t n = model->num_global_states();
    std::vector<double> example(static_cast<size_t>(model->num_features()),
                                0.3);
    example[0] = 0.9;
    QbeOptions all_options;
    all_options.max_results = -1;
    auto all = QbeMatcher(*model, all_options).Retrieve(example);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), n);
    bool saw_tie = false;
    for (size_t i = 1; i < n; ++i) {
      const QbeResult& a = (*all)[i - 1];
      const QbeResult& b = (*all)[i];
      ASSERT_GE(a.similarity, b.similarity);
      if (a.similarity == b.similarity) {
        saw_tie = true;
        EXPECT_LT(model->GlobalStateOf(a.shot), model->GlobalStateOf(b.shot));
      }
    }
    if (model == &model_) {
      EXPECT_TRUE(saw_tie);
    }
    for (int k : {0, 1, 3, 5, static_cast<int>(n) - 1, static_cast<int>(n),
                  static_cast<int>(n) + 4}) {
      QbeOptions options;
      options.max_results = k;
      auto top = QbeMatcher(*model, options).Retrieve(example);
      ASSERT_TRUE(top.ok());
      ASSERT_EQ(top->size(), std::min(n, static_cast<size_t>(k))) << k;
      for (size_t i = 0; i < top->size(); ++i) {
        EXPECT_EQ((*top)[i].shot, (*all)[i].shot) << k;
        EXPECT_EQ((*top)[i].similarity, (*all)[i].similarity) << k;
      }
    }
  }
}

}  // namespace
}  // namespace hmmm
