#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "core/model_builder.h"
#include "dense_feedback_oracle.h"
#include "feedback/access_log.h"
#include "feedback/simulated_user.h"
#include "feedback/trainer.h"
#include "retrieval/traversal.h"
#include "test_util.h"

namespace hmmm {
namespace {

class FeedbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::SmallSoccerCatalog();
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
};

TEST(AccessLogTest, RecordsAndDeduplicates) {
  AccessLog log;
  log.RecordShotPattern({0, 2});
  log.RecordShotPattern({0, 2});
  log.RecordShotPattern({1, 3}, 2.0);
  EXPECT_EQ(log.num_shot_patterns(), 2u);
  EXPECT_EQ(log.num_feedback_events(), 3u);
  EXPECT_DOUBLE_EQ(log.shot_patterns()[0].access_count, 2.0);
  EXPECT_DOUBLE_EQ(log.shot_patterns()[1].access_count, 2.0);
}

TEST(AccessLogTest, IgnoresEmptyAndNonPositive) {
  AccessLog log;
  log.RecordShotPattern({});
  log.RecordShotPattern({1}, 0.0);
  log.RecordShotPattern({1}, -1.0);
  log.RecordVideoAccess({});
  EXPECT_EQ(log.num_shot_patterns(), 0u);
  EXPECT_EQ(log.num_feedback_events(), 0u);
}

TEST(AccessLogTest, VideoAccessesAccumulate) {
  AccessLog log;
  log.RecordVideoAccess({0, 1});
  log.RecordVideoAccess({0, 1}, 3.0);
  ASSERT_EQ(log.video_patterns().size(), 1u);
  EXPECT_DOUBLE_EQ(log.video_patterns()[0].access_count, 4.0);
}

TEST(AccessLogTest, ClearResets) {
  AccessLog log;
  log.RecordShotPattern({0});
  log.RecordVideoAccess({0});
  log.Clear();
  EXPECT_EQ(log.num_shot_patterns(), 0u);
  EXPECT_TRUE(log.video_patterns().empty());
  EXPECT_EQ(log.num_feedback_events(), 0u);
}

TEST_F(FeedbackTest, MarkPositiveRecordsGlobalStates) {
  FeedbackTrainer trainer(catalog_);
  RetrievedPattern pattern;
  pattern.shots = {0, 2};  // video 0 annotated shots
  ASSERT_TRUE(trainer.MarkPositive(model_, pattern).ok());
  EXPECT_EQ(trainer.log().num_shot_patterns(), 1u);
  EXPECT_EQ(trainer.log().shot_patterns()[0].states,
            (std::vector<int>{0, 1}));  // global states of shots 0 and 2
  ASSERT_EQ(trainer.log().video_patterns().size(), 1u);
  EXPECT_EQ(trainer.log().video_patterns()[0].states,
            (std::vector<int>{0}));
}

TEST_F(FeedbackTest, MarkPositiveRejectsNonStates) {
  FeedbackTrainer trainer(catalog_);
  RetrievedPattern pattern;
  pattern.shots = {1};  // un-annotated shot, not a state
  EXPECT_FALSE(trainer.MarkPositive(model_, pattern).ok());
  RetrievedPattern empty;
  EXPECT_FALSE(trainer.MarkPositive(model_, empty).ok());
}

TEST_F(FeedbackTest, ThresholdGatesTraining) {
  FeedbackTrainerOptions options;
  options.retrain_threshold = 3;
  FeedbackTrainer trainer(catalog_, options);
  RetrievedPattern pattern;
  pattern.shots = {0, 2};

  ASSERT_TRUE(trainer.MarkPositive(model_, pattern).ok());
  auto trained = trainer.MaybeTrain(model_);
  ASSERT_TRUE(trained.ok());
  EXPECT_FALSE(*trained);  // below threshold

  ASSERT_TRUE(trainer.MarkPositive(model_, pattern).ok());
  ASSERT_TRUE(trainer.MarkPositive(model_, pattern).ok());
  trained = trainer.MaybeTrain(model_);
  ASSERT_TRUE(trained.ok());
  EXPECT_TRUE(*trained);
  EXPECT_EQ(trainer.rounds_trained(), 1u);
  EXPECT_EQ(trainer.log().num_feedback_events(), 0u);  // cleared
  EXPECT_TRUE(model_.Validate().ok());
}

TEST_F(FeedbackTest, ForceTrainsBelowThreshold) {
  FeedbackTrainer trainer(catalog_);
  RetrievedPattern pattern;
  pattern.shots = {0, 2};
  ASSERT_TRUE(trainer.MarkPositive(model_, pattern).ok());
  auto trained = trainer.MaybeTrain(model_, /*force=*/true);
  ASSERT_TRUE(trained.ok());
  EXPECT_TRUE(*trained);
  // With no pending feedback even force is a no-op.
  trained = trainer.MaybeTrain(model_, /*force=*/true);
  ASSERT_TRUE(trained.ok());
  EXPECT_FALSE(*trained);
}

TEST_F(FeedbackTest, TrainingSharpensTowardMarkedPattern) {
  FeedbackTrainer trainer(catalog_);
  RetrievedPattern positive;
  positive.shots = {0, 3};  // free_kick shot then corner shot in video 0
  ASSERT_TRUE(trainer.MarkPositive(model_, positive).ok());
  ASSERT_TRUE(trainer.MaybeTrain(model_, /*force=*/true).ok());
  const LocalShotModel& local = model_.local(0);
  // Transition 0 -> 2 (local indices: corner shot is local state 2).
  EXPECT_DOUBLE_EQ(local.a1.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(local.a1.at(0, 1), 0.0);
}

TEST_F(FeedbackTest, RelearnFeatureWeightsOption) {
  FeedbackTrainerOptions options;
  options.relearn_feature_weights = true;
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(77, 8);
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok());
  const Matrix p12_before = model->p12();

  FeedbackTrainer trainer(catalog, options);
  // Mark some annotated pattern positive.
  HmmmTraversal traversal(*model, catalog);
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({0}));
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(trainer.MarkPositive(*model, results->front()).ok());
  ASSERT_TRUE(trainer.MaybeTrain(*model, /*force=*/true).ok());
  EXPECT_GT(model->p12().MaxAbsDiff(p12_before), 1e-9);
}

TEST_F(FeedbackTest, SimulatedUserJudgesByAnnotations) {
  SimulatedUser user(catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  std::vector<RetrievedPattern> results(3);
  results[0].shots = {0, 2};  // relevant
  results[1].shots = {3, 2};  // wrong order / wrong events
  results[2].shots = {6, 7};  // relevant
  const auto positives = user.JudgePositive(pattern, results);
  EXPECT_EQ(positives, (std::vector<size_t>{0, 2}));
}

TEST_F(FeedbackTest, SimulatedUserInspectsTopKOnly) {
  SimulatedUserOptions options;
  options.inspect_top_k = 1;
  SimulatedUser user(catalog_, options);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  std::vector<RetrievedPattern> results(2);
  results[0].shots = {0, 2};
  results[1].shots = {6, 7};
  const auto positives = user.JudgePositive(pattern, results);
  EXPECT_EQ(positives, (std::vector<size_t>{0}));
}

TEST_F(FeedbackTest, SimulatedUserNoiseFlips) {
  SimulatedUserOptions options;
  options.judgment_noise = 1.0;  // always flip
  SimulatedUser user(catalog_, options);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  std::vector<RetrievedPattern> results(2);
  results[0].shots = {0, 2};  // relevant -> flipped to negative
  results[1].shots = {3, 2};  // irrelevant -> flipped to positive
  const auto positives = user.JudgePositive(pattern, results);
  EXPECT_EQ(positives, (std::vector<size_t>{1}));
}

TEST(FeedbackMetricsTest, UpdateMagnitudeEqualsTheDenseL1BitForBit) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(41, 10);
  auto built = ModelBuilder(catalog).Build();
  ASSERT_TRUE(built.ok());
  HierarchicalModel model = std::move(built).value();
  MetricsRegistry registry;
  FeedbackTrainer trainer(catalog);
  trainer.AttachMetrics(&registry);
  const Histogram* magnitude = registry.GetHistogram(
      "hmmm_feedback_update_magnitude", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0});

  Rng rng(4242);
  const int num_states = static_cast<int>(model.num_global_states());
  double expected = 0.0;
  for (int round = 0; round < 8; ++round) {
    // Marks over random states, so patterns span several videos and
    // rounds revisit rows an earlier round rewrote.
    const int marks = rng.NextInt(1, 6);
    for (int m = 0; m < marks; ++m) {
      RetrievedPattern pattern;
      const int width = rng.NextInt(1, 4);
      for (int i = 0; i < width; ++i) {
        pattern.shots.push_back(
            model.ShotOfGlobalState(rng.NextInt(0, num_states - 1)));
      }
      ASSERT_TRUE(trainer.MarkPositive(model, pattern).ok());
    }
    const std::vector<double> before = testing::DenseFlattenAffinities(model);
    auto trained = trainer.MaybeTrain(model, /*force=*/true);
    ASSERT_TRUE(trained.ok());
    ASSERT_TRUE(*trained);
    const double l1 =
        testing::DenseL1Diff(before, testing::DenseFlattenAffinities(model));
    EXPECT_GT(l1, 0.0);
    expected += l1;
    const double observed = magnitude->sum();
    EXPECT_EQ(std::memcmp(&observed, &expected, sizeof(double)), 0)
        << "round " << round << ": " << observed << " vs " << expected;
  }
  EXPECT_EQ(magnitude->count(), 8u);
}

}  // namespace
}  // namespace hmmm
