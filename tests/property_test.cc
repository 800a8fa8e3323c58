// Property-style parameterized sweeps over the model invariants the paper
// relies on: row-stochastic transition matrices, distribution-valued Pi,
// normalized B1, weight matrices summing to 1 per event, and retrieval
// determinism — across seeds and corpus shapes.

#include <gtest/gtest.h>

#include "core/model_builder.h"
#include "core/learner.h"
#include "query/translator.h"
#include "retrieval/baseline_exhaustive.h"
#include "retrieval/traversal.h"
#include "test_util.h"

namespace hmmm {
namespace {

struct CorpusParams {
  uint64_t seed;
  int num_videos;
  double event_fraction;
};

std::string ParamName(const ::testing::TestParamInfo<CorpusParams>& info) {
  return "seed" + std::to_string(info.param.seed) + "_v" +
         std::to_string(info.param.num_videos) + "_e" +
         std::to_string(static_cast<int>(info.param.event_fraction * 100));
}

class ModelInvariantsTest : public ::testing::TestWithParam<CorpusParams> {
 protected:
  void SetUp() override {
    FeatureLevelConfig config = SoccerFeatureLevelDefaults(GetParam().seed);
    config.num_videos = GetParam().num_videos;
    config.min_shots_per_video = 25;
    config.max_shots_per_video = 60;
    config.event_shot_fraction = GetParam().event_fraction;
    FeatureLevelGenerator generator(config);
    auto catalog = VideoCatalog::FromGeneratedCorpus(generator.Generate());
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(catalog).value();
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
};

TEST_P(ModelInvariantsTest, FullModelValidates) {
  EXPECT_TRUE(model_.Validate().ok());
}

TEST_P(ModelInvariantsTest, A1RowsStochasticUpperTriangular) {
  for (const LocalShotModel& local : model_.locals()) {
    EXPECT_TRUE(local.a1.IsRowStochastic(1e-9, true));
    for (size_t i = 0; i < local.a1.rows(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        EXPECT_DOUBLE_EQ(local.a1.at(i, j), 0.0);
      }
    }
  }
}

TEST_P(ModelInvariantsTest, B1WithinUnitInterval) {
  for (size_t r = 0; r < model_.b1().rows(); ++r) {
    for (size_t c = 0; c < model_.b1().cols(); ++c) {
      EXPECT_GE(model_.b1().at(r, c), 0.0);
      EXPECT_LE(model_.b1().at(r, c), 1.0);
    }
  }
}

TEST_P(ModelInvariantsTest, B2CountsMatchAnnotations) {
  double b2_total = 0.0;
  for (size_t v = 0; v < model_.b2().rows(); ++v) {
    b2_total += model_.b2().RowSum(v);
  }
  EXPECT_DOUBLE_EQ(b2_total, static_cast<double>(catalog_.num_annotations()));
}

TEST_P(ModelInvariantsTest, LearnedP12RowsSumToOne) {
  auto p12 = ComputeFeatureWeights(model_, catalog_);
  ASSERT_TRUE(p12.ok());
  for (size_t e = 0; e < p12->rows(); ++e) {
    EXPECT_NEAR(p12->RowSum(e), 1.0, 1e-9);
    for (size_t f = 0; f < p12->cols(); ++f) {
      EXPECT_GE(p12->at(e, f), 0.0);
    }
  }
}

TEST_P(ModelInvariantsTest, CentroidsWithinUnitInterval) {
  auto centroids = ComputeEventCentroids(model_, catalog_);
  ASSERT_TRUE(centroids.ok());
  for (size_t e = 0; e < centroids->rows(); ++e) {
    for (size_t f = 0; f < centroids->cols(); ++f) {
      EXPECT_GE(centroids->at(e, f), 0.0);
      EXPECT_LE(centroids->at(e, f), 1.0);
    }
  }
}

TEST_P(ModelInvariantsTest, SerializationIsLossless) {
  auto restored = HierarchicalModel::Deserialize(model_.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_LT(restored->b1().MaxAbsDiff(model_.b1()), 1e-15);
  EXPECT_LT(restored->a2().ToDense().MaxAbsDiff(model_.a2().ToDense()), 1e-15);
  EXPECT_EQ(restored->num_global_states(), model_.num_global_states());
}

TEST_P(ModelInvariantsTest, RetrievalIsDeterministic) {
  HmmmTraversal traversal(model_, catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  auto a = traversal.Retrieve(pattern);
  auto b = traversal.Retrieve(pattern);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].shots, (*b)[i].shots);
    EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score);
  }
}

TEST_P(ModelInvariantsTest, EdgeWeightsAreEquation13Products) {
  TraversalOptions options;
  options.beam_width = 2;
  HmmmTraversal traversal(model_, catalog_, options);
  auto results = traversal.Retrieve(TemporalPattern::FromEvents({2, 0}));
  ASSERT_TRUE(results.ok());
  SimilarityScorer scorer(model_);
  for (const RetrievedPattern& result : *results) {
    if (result.crosses_videos) continue;
    ASSERT_EQ(result.shots.size(), 2u);
    const LocalShotModel& local = model_.local(result.video);
    int i0 = -1, i1 = -1;
    for (size_t i = 0; i < local.states.size(); ++i) {
      if (local.states[i] == result.shots[0]) i0 = static_cast<int>(i);
      if (local.states[i] == result.shots[1]) i1 = static_cast<int>(i);
    }
    ASSERT_GE(i0, 0);
    ASSERT_GE(i1, 0);
    const int g0 = model_.GlobalStateOf(result.shots[0]);
    const int g1 = model_.GlobalStateOf(result.shots[1]);
    const double w1 = local.pi1[static_cast<size_t>(i0)] *
                      scorer.EventSimilarity(g0, 2);
    const double w2 = w1 *
                      local.a1.at(static_cast<size_t>(i0),
                                  static_cast<size_t>(i1)) *
                      scorer.EventSimilarity(g1, 0);
    EXPECT_NEAR(result.edge_weights[0], w1, 1e-9);
    EXPECT_NEAR(result.edge_weights[1], w2, 1e-9);
    EXPECT_NEAR(result.score, w1 + w2, 1e-9);
  }
}

TEST_P(ModelInvariantsTest, ExhaustiveDominatesGreedyEverywhere) {
  const auto pattern = TemporalPattern::FromEvents({3, 2});  // foul -> fk
  ExhaustiveMatcher exhaustive(model_, catalog_);
  HmmmTraversal greedy(model_, catalog_);
  auto gold = exhaustive.Retrieve(pattern);
  auto fast = greedy.Retrieve(pattern);
  ASSERT_TRUE(gold.ok());
  ASSERT_TRUE(fast.ok());
  if (!gold->empty() && !fast->empty()) {
    EXPECT_GE(gold->front().score + 1e-12, fast->front().score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CorpusSweep, ModelInvariantsTest,
    ::testing::Values(CorpusParams{1, 4, 0.15}, CorpusParams{2, 8, 0.25},
                      CorpusParams{3, 12, 0.40}, CorpusParams{11, 6, 0.08},
                      CorpusParams{29, 10, 0.30}),
    ParamName);

// Sweep the A1 initialization over many annotation-count profiles.
class AffinitySweepTest : public ::testing::TestWithParam<int> {};

TEST_P(AffinitySweepTest, InitialAffinityInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 20; ++round) {
    const int n = rng.NextInt(1, 12);
    std::vector<int> counts;
    for (int i = 0; i < n; ++i) counts.push_back(rng.NextInt(1, 4));
    auto a1 = InitialShotAffinity(counts);
    ASSERT_TRUE(a1.ok());
    EXPECT_TRUE(a1->IsRowStochastic(1e-9));
    // Mass into state j from row i < j is proportional to NE(j).
    if (n >= 3) {
      const double denom = a1->at(0, 2);
      if (denom > 0.0) {
        EXPECT_NEAR(a1->at(0, 1) / denom,
                    static_cast<double>(counts[1]) / counts[2], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffinitySweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace hmmm
