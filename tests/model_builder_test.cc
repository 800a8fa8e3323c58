#include "core/model_builder.h"

#include <gtest/gtest.h>

#include "core/learner.h"
#include "test_util.h"

namespace hmmm {
namespace {

TEST(ModelBuilderTest, BuildsValidModelFromSmallCatalog) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  ModelBuilder builder(catalog);
  auto model = builder.Build();
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->Validate().ok());
  EXPECT_EQ(model->num_videos(), 2u);
  EXPECT_EQ(model->num_global_states(), 6u);
  EXPECT_EQ(model->num_features(), 8);
}

TEST(ModelBuilderTest, LocalA1MatchesPaperExample) {
  // video_a's annotated shots have NE = 1, 2, 1 — the paper example.
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  const LocalShotModel& local = model->local(0);
  ASSERT_EQ(local.num_states(), 3u);
  EXPECT_DOUBLE_EQ(local.a1.at(0, 1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(local.a1.at(0, 2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(local.a1.at(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(local.a1.at(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(local.a1.at(2, 2), 1.0);
}

TEST(ModelBuilderTest, InitialDistributionsAreUniform) {
  auto model = ModelBuilder(testing::SmallSoccerCatalog()).Build();
  ASSERT_TRUE(model.ok());
  for (const LocalShotModel& local : model->locals()) {
    for (double p : local.pi1) {
      EXPECT_DOUBLE_EQ(p, 1.0 / static_cast<double>(local.num_states()));
    }
  }
  for (double p : model->pi2()) EXPECT_DOUBLE_EQ(p, 0.5);
  EXPECT_TRUE(model->a2().ToDense().IsRowStochastic(1e-12));
}

TEST(ModelBuilderTest, B1NormalizedPerEquation3) {
  auto model = ModelBuilder(testing::SmallSoccerCatalog()).Build();
  ASSERT_TRUE(model.ok());
  const Matrix& b1 = model->b1();
  EXPECT_EQ(b1.rows(), 6u);
  for (size_t r = 0; r < b1.rows(); ++r) {
    for (size_t c = 0; c < b1.cols(); ++c) {
      EXPECT_GE(b1.at(r, c), 0.0);
      EXPECT_LE(b1.at(r, c), 1.0);
    }
  }
  // Raw values are {0.1, 0.9}: normalization maps them to {0, 1}.
  // State 0 = shot 0 (free_kick, feature 2 hot).
  EXPECT_DOUBLE_EQ(b1.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(b1.at(0, 0), 0.0);
}

TEST(ModelBuilderTest, P12UniformByDefault) {
  auto model = ModelBuilder(testing::SmallSoccerCatalog()).Build();
  ASSERT_TRUE(model.ok());
  for (size_t e = 0; e < model->p12().rows(); ++e) {
    for (size_t f = 0; f < model->p12().cols(); ++f) {
      EXPECT_DOUBLE_EQ(model->p12().at(e, f), 1.0 / 8.0);  // Eq. 7
    }
  }
}

TEST(ModelBuilderTest, P12LearnedWhenRequested) {
  ModelBuilderOptions options;
  options.learn_feature_weights = true;
  auto model =
      ModelBuilder(testing::GeneratedSoccerCatalog(7, 10), options).Build();
  ASSERT_TRUE(model.ok());
  // Rows still sum to 1 but are no longer uniform for trained events.
  bool any_nonuniform = false;
  for (size_t e = 0; e < model->p12().rows(); ++e) {
    EXPECT_NEAR(model->p12().RowSum(e), 1.0, 1e-9);
    for (size_t f = 0; f < model->p12().cols(); ++f) {
      if (std::abs(model->p12().at(e, f) - 1.0 / 20.0) > 1e-6) {
        any_nonuniform = true;
      }
    }
  }
  EXPECT_TRUE(any_nonuniform);
}

TEST(ModelBuilderTest, B1PrimeIsEventCentroid) {
  auto model = ModelBuilder(testing::SmallSoccerCatalog()).Build();
  ASSERT_TRUE(model.ok());
  // Event 1 (corner_kick) is carried by exactly one state whose B1 row has
  // feature 1 = 1.0: centroid equals that row.
  EXPECT_DOUBLE_EQ(model->b1_prime().at(1, 1), 1.0);
  // Event 6 (red_card) never occurs: all-zero centroid row.
  for (size_t f = 0; f < model->b1_prime().cols(); ++f) {
    EXPECT_DOUBLE_EQ(model->b1_prime().at(6, f), 0.0);
  }
}

TEST(ModelBuilderTest, B2MatchesCatalogCounts) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->b2() == catalog.EventCountMatrix());
}

TEST(ModelBuilderTest, LinkMatrixPartitionsStates) {
  auto model = ModelBuilder(testing::SmallSoccerCatalog()).Build();
  ASSERT_TRUE(model.ok());
  const Matrix l12 = model->LinkMatrix();
  EXPECT_EQ(l12.rows(), 2u);
  EXPECT_EQ(l12.cols(), 6u);
  // Each state belongs to exactly one video.
  for (size_t s = 0; s < l12.cols(); ++s) {
    double column_sum = 0.0;
    for (size_t v = 0; v < l12.rows(); ++v) column_sum += l12.at(v, s);
    EXPECT_DOUBLE_EQ(column_sum, 1.0);
  }
  EXPECT_DOUBLE_EQ(l12.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(l12.at(1, 3), 1.0);
}

TEST(ModelBuilderTest, GlobalStateMappingRoundTrips) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  for (size_t s = 0; s < model->num_global_states(); ++s) {
    const ShotId shot = model->ShotOfGlobalState(static_cast<int>(s));
    EXPECT_EQ(model->GlobalStateOf(shot), static_cast<int>(s));
    EXPECT_FALSE(catalog.shot(shot).events.empty());
  }
  // Un-annotated shots are not states.
  EXPECT_EQ(model->GlobalStateOf(1), -1);
  EXPECT_EQ(model->GlobalStateOf(-5), -1);
  EXPECT_EQ(model->GlobalStateOf(9999), -1);
}

TEST(ModelBuilderTest, VideoWithoutAnnotationsGetsEmptyLocal) {
  VideoCatalog catalog(SoccerEvents(), 2);
  const VideoId v0 = catalog.AddVideo("empty");
  ASSERT_TRUE(catalog.AddShot(v0, 0, 1, {}, {0.5, 0.5}).ok());
  const VideoId v1 = catalog.AddVideo("full");
  ASSERT_TRUE(catalog.AddShot(v1, 0, 1, {0}, {0.9, 0.1}).ok());
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->local(0).num_states(), 0u);
  EXPECT_EQ(model->local(1).num_states(), 1u);
  EXPECT_TRUE(model->Validate().ok());
}

TEST(RebuildPreservingLearningTest, CarriesLocalLearningForUnchangedVideos) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  // Teach the model something.
  OfflineLearner learner;
  ASSERT_TRUE(learner.ApplyShotPatterns(*model, {{{0, 2}, 3.0}}).ok());
  ASSERT_TRUE(
      learner.ApplyVideoPatterns(*model, {{{0, 1}, 2.0}}).ok());
  const Matrix learned_a1 = model->local(0).a1;

  // Grow the catalog with a new video and rebuild.
  VideoCatalog grown = testing::SmallSoccerCatalog();
  const VideoId v2 = grown.AddVideo("video_c");
  ASSERT_TRUE(grown.AddShot(v2, 0.0, 3.0, {4},
                            testing::FeatureVector(8, 0.1, {4}, 0.9)).ok());
  auto rebuilt = RebuildPreservingLearning(*model, grown);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(rebuilt->Validate().ok());
  EXPECT_EQ(rebuilt->num_videos(), 3u);

  // Video 0's learned A1/Pi1 survive; the new video gets a fresh local.
  EXPECT_LT(rebuilt->local(0).a1.MaxAbsDiff(learned_a1), 1e-12);
  EXPECT_DOUBLE_EQ(rebuilt->local(0).pi1[0], 1.0);
  EXPECT_EQ(rebuilt->local(2).num_states(), 1u);

  // A2's learned block survives re-normalization (videos 0/1 co-accessed).
  EXPECT_DOUBLE_EQ(rebuilt->a2().at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(rebuilt->a2().at(0, 2), 0.0);
  // New video's row is uniform over the grown set.
  EXPECT_NEAR(rebuilt->a2().at(2, 0), 1.0 / 3.0, 1e-12);
  // Pi2 keeps the old preference with a uniform seed for the newcomer.
  EXPECT_GT(rebuilt->pi2()[0], rebuilt->pi2()[2]);
}

TEST(RebuildPreservingLearningTest, ChangedVideoGetsFreshLocal) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  OfflineLearner learner;
  ASSERT_TRUE(learner.ApplyShotPatterns(*model, {{{0, 2}, 3.0}}).ok());

  // Append an annotated shot to video 0: its state list changes.
  VideoCatalog grown = testing::SmallSoccerCatalog();
  ASSERT_TRUE(grown.AddShot(0, 30.0, 33.0, {0},
                            testing::FeatureVector(8, 0.1, {0}, 0.9)).ok());
  auto rebuilt = RebuildPreservingLearning(*model, grown);
  ASSERT_TRUE(rebuilt.ok());
  // Fresh initialization: row 0 no longer concentrated on one state.
  EXPECT_LT(rebuilt->local(0).a1.at(0, 2), 1.0);
  EXPECT_EQ(rebuilt->local(0).num_states(), 4u);
  EXPECT_TRUE(rebuilt->Validate().ok());
}

TEST(RebuildPreservingLearningTest, QueriesStillWorkAfterRebuild) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(15, 6);
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  auto rebuilt = RebuildPreservingLearning(*model, catalog);
  ASSERT_TRUE(rebuilt.ok());
  // Unchanged catalog: rebuild is a fixed point for the local models.
  for (size_t v = 0; v < catalog.num_videos(); ++v) {
    EXPECT_LT(rebuilt->local(static_cast<VideoId>(v))
                  .a1.MaxAbsDiff(model->local(static_cast<VideoId>(v)).a1),
              1e-12);
  }
}

TEST(ModelBuilderTest, PaperScaleBuild) {
  // 54 videos / ~11.5k shots / ~500 states builds and validates.
  FeatureLevelGenerator generator(SoccerFeatureLevelDefaults(1));
  auto catalog = VideoCatalog::FromGeneratedCorpus(generator.Generate());
  ASSERT_TRUE(catalog.ok());
  auto model = ModelBuilder(*catalog).Build();
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_videos(), 54u);
  EXPECT_EQ(model->num_global_states(), catalog->num_annotated_shots());
}

}  // namespace
}  // namespace hmmm
