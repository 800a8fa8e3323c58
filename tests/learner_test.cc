#include "core/learner.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "core/model_builder.h"
#include "dense_feedback_oracle.h"
#include "test_util.h"

namespace hmmm {
namespace {

HierarchicalModel BuildSmallModel(const VideoCatalog& catalog) {
  auto model = ModelBuilder(catalog).Build();
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(UniformFeatureWeightsTest, Equation7) {
  const Matrix p12 = UniformFeatureWeights(3, 4);
  EXPECT_EQ(p12.rows(), 3u);
  EXPECT_EQ(p12.cols(), 4u);
  for (size_t e = 0; e < 3; ++e) {
    for (size_t f = 0; f < 4; ++f) EXPECT_DOUBLE_EQ(p12.at(e, f), 0.25);
  }
  EXPECT_EQ(UniformFeatureWeights(2, 0).cols(), 0u);
}

TEST(ComputeFeatureWeightsTest, DownWeightsHighVarianceFeatures) {
  // Build a catalog where event 0's shots agree on feature 0 but vary on
  // feature 1: Eq. 10 must weight feature 0 higher.
  VideoCatalog catalog(SoccerEvents(), 2);
  const VideoId v = catalog.AddVideo("v");
  ASSERT_TRUE(catalog.AddShot(v, 0, 1, {0}, {0.80, 0.10}).ok());
  ASSERT_TRUE(catalog.AddShot(v, 1, 2, {0}, {0.80, 0.90}).ok());
  ASSERT_TRUE(catalog.AddShot(v, 2, 3, {0}, {0.81, 0.20}).ok());
  ASSERT_TRUE(catalog.AddShot(v, 3, 4, {0}, {0.79, 0.95}).ok());
  const HierarchicalModel model = BuildSmallModel(catalog);

  auto p12 = ComputeFeatureWeights(model, catalog);
  ASSERT_TRUE(p12.ok());
  EXPECT_GT(p12->at(0, 0), p12->at(0, 1));
  EXPECT_NEAR(p12->RowSum(0), 1.0, 1e-9);
}

TEST(ComputeFeatureWeightsTest, EventsWithFewShotsStayUniform) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  const HierarchicalModel model = BuildSmallModel(catalog);
  auto p12 = ComputeFeatureWeights(model, catalog);
  ASSERT_TRUE(p12.ok());
  // corner_kick (id 1) occurs once: uniform row (Eq. 7 fallback).
  for (size_t f = 0; f < p12->cols(); ++f) {
    EXPECT_DOUBLE_EQ(p12->at(1, f), 1.0 / 8.0);
  }
}

TEST(ComputeFeatureWeightsTest, MinStddevGuard) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  const HierarchicalModel model = BuildSmallModel(catalog);
  EXPECT_FALSE(ComputeFeatureWeights(model, catalog, 0.0).ok());
  EXPECT_FALSE(ComputeFeatureWeights(model, catalog, -1.0).ok());
}

TEST(ComputeEventCentroidsTest, Equation11Means) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  const HierarchicalModel model = BuildSmallModel(catalog);
  auto centroids = ComputeEventCentroids(model, catalog);
  ASSERT_TRUE(centroids.ok());
  // goal (id 0) is carried by states for shots 2, 4, 7 whose B1 feature-0
  // values are all 1.0 after normalization.
  EXPECT_DOUBLE_EQ(centroids->at(0, 0), 1.0);
  // Events without shots give zero rows.
  for (size_t f = 0; f < centroids->cols(); ++f) {
    EXPECT_DOUBLE_EQ(centroids->at(7, f), 0.0);
  }
}

TEST(OfflineLearnerTest, ShotPatternSharpensA1) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  HierarchicalModel model = BuildSmallModel(catalog);
  // Global states 0..2 belong to video 0. Reinforce the path 0 -> 2
  // (free_kick shot -> corner shot, skipping the goal shot).
  OfflineLearner learner;
  std::vector<AccessPattern> patterns = {{{0, 2}, 5.0}};
  ASSERT_TRUE(learner.ApplyShotPatterns(model, patterns).ok());

  const LocalShotModel& local = model.local(0);
  // Row 0 must now put all mass on state 2 (only co-accessed transition).
  EXPECT_DOUBLE_EQ(local.a1.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(local.a1.at(0, 1), 0.0);
  // Row 1 was never accessed: keeps the prior distribution.
  EXPECT_DOUBLE_EQ(local.a1.at(1, 2), 0.5);
  EXPECT_TRUE(model.Validate().ok());
  // Pi1 follows initial-state counts: state 0 begins the only pattern.
  EXPECT_DOUBLE_EQ(local.pi1[0], 1.0);
  EXPECT_DOUBLE_EQ(local.pi1[1], 0.0);
}

TEST(OfflineLearnerTest, PatternSpanningVideosIsSplit) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  HierarchicalModel model = BuildSmallModel(catalog);
  OfflineLearner learner;
  // States 0 and 2 in video 0, state 3 (= shot 4) in video 1.
  std::vector<AccessPattern> patterns = {{{0, 2, 3}, 1.0}};
  ASSERT_TRUE(learner.ApplyShotPatterns(model, patterns).ok());
  EXPECT_DOUBLE_EQ(model.local(0).a1.at(0, 2), 1.0);
  // Video 1's fragment has a single state: its pi1 becomes concentrated.
  EXPECT_DOUBLE_EQ(model.local(1).pi1[0], 1.0);
  EXPECT_TRUE(model.Validate().ok());
}

TEST(OfflineLearnerTest, RejectsOutOfRangeStates) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  HierarchicalModel model = BuildSmallModel(catalog);
  OfflineLearner learner;
  EXPECT_FALSE(learner.ApplyShotPatterns(model, {{{99}, 1.0}}).ok());
}

TEST(OfflineLearnerTest, VideoPatternsUpdateA2AndPi2) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  HierarchicalModel model = BuildSmallModel(catalog);
  OfflineLearner learner;
  std::vector<AccessPattern> patterns = {{{0, 1}, 4.0}};
  ASSERT_TRUE(learner.ApplyVideoPatterns(model, patterns).ok());
  // Videos 0 and 1 co-accessed: equal split each way after normalizing.
  EXPECT_DOUBLE_EQ(model.a2().at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(model.a2().at(0, 0), 0.5);
  EXPECT_TRUE(model.a2().ToDense().IsRowStochastic(1e-12));
  EXPECT_DOUBLE_EQ(model.pi2()[0], 1.0);  // first state of the pattern
  EXPECT_TRUE(model.Validate().ok());
}

TEST(OfflineLearnerTest, LiteralEquation4Semantics) {
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  HierarchicalModel model = BuildSmallModel(catalog);
  OfflineLearner learner(
      OfflineLearnerOptions{PiSemantics::kLiteralEquation4});
  ASSERT_TRUE(learner.ApplyShotPatterns(model, {{{0, 2}, 1.0}}).ok());
  const LocalShotModel& local = model.local(0);
  EXPECT_DOUBLE_EQ(local.pi1[0], 0.5);
  EXPECT_DOUBLE_EQ(local.pi1[2], 0.5);
}

TEST(OfflineLearnerTest, RelearnFeatureWeightsUpdatesBoth) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(13, 10);
  HierarchicalModel model = BuildSmallModel(catalog);
  const Matrix p12_before = model.p12();
  OfflineLearner learner;
  ASSERT_TRUE(learner.RelearnFeatureWeights(model, catalog).ok());
  EXPECT_GT(model.p12().MaxAbsDiff(p12_before), 1e-6);
  EXPECT_TRUE(model.Validate().ok());
}

TEST(OfflineLearnerTest, RepeatedTrainingConverges) {
  // Applying the same pattern repeatedly keeps matrices stochastic and
  // idempotent after the first sharpening.
  const VideoCatalog catalog = testing::SmallSoccerCatalog();
  HierarchicalModel model = BuildSmallModel(catalog);
  OfflineLearner learner;
  std::vector<AccessPattern> patterns = {{{0, 1}, 1.0}};
  ASSERT_TRUE(learner.ApplyShotPatterns(model, patterns).ok());
  const Matrix after_one = model.local(0).a1;
  ASSERT_TRUE(learner.ApplyShotPatterns(model, patterns).ok());
  EXPECT_LT(model.local(0).a1.MaxAbsDiff(after_one), 1e-12);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.ptr(), b.ptr(), a.size() * sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A video-level model of `num_videos` videos with a random prior A2 (some
/// exact zeros, some uniform rows) and Pi2: all that ApplyVideoPatterns
/// reads.
HierarchicalModel RandomVideoLevel(Rng& rng, size_t num_videos) {
  HierarchicalModel model;
  model.mutable_locals().resize(num_videos);
  Matrix a2(num_videos, num_videos, 0.0);
  for (size_t r = 0; r < num_videos; ++r) {
    const bool uniform = rng.NextBernoulli(0.3);
    for (size_t c = 0; c < num_videos; ++c) {
      if (uniform) {
        a2.at(r, c) = 1.0;
      } else if (!rng.NextBernoulli(0.2)) {
        a2.at(r, c) = rng.NextDouble();
      }
    }
  }
  a2.NormalizeRows();
  model.mutable_a2() = testing::AffinityFromDense(a2);
  std::vector<double> pi2(num_videos);
  for (double& p : pi2) p = rng.NextDouble();
  model.mutable_pi2() = std::move(pi2);
  return model;
}

/// A feedback round: repeated patterns, duplicate states, zero counts,
/// empty patterns, and now and then a round whose every count is zero.
std::vector<AccessPattern> RandomVideoRound(Rng& rng, size_t num_videos) {
  const bool all_zero = rng.NextBernoulli(0.1);
  const double counts[] = {0.0, 1.0, 1.0, 2.0, 3.5};
  std::vector<AccessPattern> patterns(static_cast<size_t>(rng.NextInt(0, 12)));
  for (size_t p = 0; p < patterns.size(); ++p) {
    if (p > 0 && rng.NextBernoulli(0.15)) {
      patterns[p] = patterns[static_cast<size_t>(rng.NextInt(0, p - 1))];
      continue;
    }
    const int width = rng.NextInt(0, 6);
    for (int i = 0; i < width; ++i) {
      patterns[p].states.push_back(
          rng.NextInt(0, static_cast<int>(num_videos) - 1));
    }
    patterns[p].access_count =
        rng.NextBernoulli(0.2) ? rng.NextDouble(0.0, 4.0)
                               : counts[rng.NextInt(0, 4)];
    if (all_zero) patterns[p].access_count = 0.0;
  }
  return patterns;
}

TEST(OfflineLearnerTest, VideoPatternsMatchTheDenseOracleBitForBit) {
  Rng rng(20260611);
  for (int round = 0; round < 200; ++round) {
    const size_t num_videos = static_cast<size_t>(rng.NextInt(1, 60));
    HierarchicalModel model = RandomVideoLevel(rng, num_videos);
    const std::vector<AccessPattern> patterns =
        RandomVideoRound(rng, num_videos);
    const PiSemantics semantics = rng.NextBernoulli(0.5)
                                      ? PiSemantics::kInitialStateCounts
                                      : PiSemantics::kLiteralEquation4;
    HierarchicalModel expected = model;
    ASSERT_TRUE(
        testing::DenseApplyVideoPatterns(expected, patterns, semantics).ok());

    // Every third round reads borrowed dense A2 rows, as a
    // snapshot-opened model does; the borrowed bytes must stay untouched.
    const Matrix dense_prior = model.a2().ToDense();
    const std::vector<double> prior(dense_prior.ptr(),
                                    dense_prior.ptr() + dense_prior.size());
    std::vector<double> mapped = prior;
    if (round % 3 == 0) {
      for (size_t r = 0; r < num_videos; ++r) {
        if (model.a2().IsUniform(r)) continue;
        model.mutable_a2().BorrowRow(r, mapped.data() + r * num_videos);
      }
    }
    ASSERT_TRUE(OfflineLearner(OfflineLearnerOptions{semantics})
                    .ApplyVideoPatterns(model, patterns)
                    .ok());
    EXPECT_TRUE(SameBits(model.a2().ToDense(), expected.a2().ToDense()))
        << "round " << round;
    EXPECT_TRUE(SameBits(model.pi2(), expected.pi2())) << "round " << round;
    EXPECT_EQ(model.version(), expected.version());
    EXPECT_TRUE(SameBits(mapped, prior)) << "round " << round;
  }
}

TEST(OfflineLearnerTest, VideoRoundRewritesTouchedRowsInPlace) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(5, 12);
  HierarchicalModel model = BuildSmallModel(catalog);
  for (size_t r = 0; r < model.num_videos(); ++r) {
    ASSERT_TRUE(model.a2().IsUniform(r)) << "row " << r;
  }
  const Matrix before = model.a2().ToDense();
  std::vector<AccessPattern> patterns = {{{4, 1}, 2.0}, {{9, 9}, 0.0}};
  ASSERT_TRUE(OfflineLearner().ApplyVideoPatterns(model, patterns).ok());

  // Nothing V x V was allocated: only the rewritten rows own storage.
  const Matrix after = model.a2().ToDense();
  for (size_t r = 0; r < model.num_videos(); ++r) {
    const bool same = std::memcmp(after.RowPtr(r), before.RowPtr(r),
                                  before.cols() * sizeof(double)) == 0;
    // Row 9's only pattern has count 0, so it keeps its prior row too.
    EXPECT_EQ(same, r != 1 && r != 4) << "row " << r;
    EXPECT_EQ(model.a2().IsOwned(r), r == 1 || r == 4) << "row " << r;
  }
  EXPECT_DOUBLE_EQ(model.a2().at(1, 4), 0.5);
  EXPECT_DOUBLE_EQ(model.a2().at(4, 4), 0.5);
}

TEST(OfflineLearnerTest, InvalidPatternsFailBeforeAnyWrite) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(5, 6);
  HierarchicalModel model = BuildSmallModel(catalog);
  const HierarchicalModel before = model;
  OfflineLearner learner;

  // The bad pattern comes after a valid one that would rewrite rows.
  EXPECT_EQ(learner.ApplyVideoPatterns(model, {{{0, 1}, 1.0}, {{6}, 1.0}})
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(learner.ApplyVideoPatterns(model, {{{0, 1}, 1.0}, {{2}, -1.0}})
                .code(),
            StatusCode::kInvalidArgument);
  const int past_end = static_cast<int>(model.num_global_states());
  EXPECT_EQ(
      learner.ApplyShotPatterns(model, {{{0, 1}, 1.0}, {{past_end}, 1.0}})
          .code(),
      StatusCode::kOutOfRange);
  // A negative count in the last video's fragment must not leave the
  // first video's A1 rewritten.
  EXPECT_EQ(
      learner.ApplyShotPatterns(model, {{{0, 1}, 1.0}, {{past_end - 1}, -1.0}})
          .code(),
      StatusCode::kInvalidArgument);

  EXPECT_TRUE(SameBits(model.a2().ToDense(), before.a2().ToDense()));
  EXPECT_TRUE(SameBits(model.pi2(), before.pi2()));
  for (size_t v = 0; v < model.num_videos(); ++v) {
    EXPECT_TRUE(SameBits(model.locals()[v].a1, before.locals()[v].a1));
    EXPECT_TRUE(SameBits(model.locals()[v].pi1, before.locals()[v].pi1));
  }
  EXPECT_EQ(model.version(), before.version());
}

TEST(OfflineLearnerTest, ShotPatternsMapGlobalStatesToTheirVideos) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(5, 6);
  HierarchicalModel model = BuildSmallModel(catalog);
  // The first two states of video 3, then the first state of video 5.
  int base3 = 0;
  for (VideoId v = 0; v < 3; ++v) {
    base3 += static_cast<int>(model.local(v).num_states());
  }
  int base5 = base3;
  for (VideoId v = 3; v < 5; ++v) {
    base5 += static_cast<int>(model.local(v).num_states());
  }
  ASSERT_GE(model.local(3).num_states(), 2u);
  const HierarchicalModel before = model;
  ASSERT_TRUE(OfflineLearner()
                  .ApplyShotPatterns(model, {{{base3, base3 + 1, base5}, 1.0}})
                  .ok());
  // Eqs. 1-2 on local states 0 and 1 of video 3: row 0 keeps only its
  // prior mass on those two states, renormalized.
  const Matrix& prior = before.local(3).a1;
  EXPECT_DOUBLE_EQ(model.local(3).a1.at(0, 1),
                   prior.at(0, 1) / (prior.at(0, 0) + prior.at(0, 1)));
  EXPECT_DOUBLE_EQ(model.local(3).pi1[0], 1.0);
  EXPECT_DOUBLE_EQ(model.local(5).pi1[0], 1.0);
  for (VideoId v : {0, 1, 2, 4}) {
    EXPECT_TRUE(SameBits(model.local(v).a1, before.local(v).a1)) << v;
  }
}

}  // namespace
}  // namespace hmmm
