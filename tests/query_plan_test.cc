#include "retrieval/query_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/model_builder.h"
#include "retrieval/engine.h"
#include "test_util.h"

namespace hmmm {
namespace {

// -- DenseBitset ----------------------------------------------------------

TEST(DenseBitsetTest, SetTestCountOverWordBoundaries) {
  DenseBitset bits(130);  // spans three 64-bit words
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_FALSE(bits.Any());
  for (size_t i : {0u, 63u, 64u, 127u, 128u, 129u}) {
    EXPECT_FALSE(bits.Test(i));
    bits.Set(i);
    EXPECT_TRUE(bits.Test(i));
  }
  EXPECT_EQ(bits.Count(), 6u);
  EXPECT_TRUE(bits.Any());
  bits.Reset();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(DenseBitsetTest, SetAllClearsTailBitsBeyondSize) {
  DenseBitset bits(70);  // 6 tail bits in the second word must stay clear
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70u);
  std::vector<size_t> seen;
  bits.ForEachSetBit([&](size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 70u);
  EXPECT_EQ(seen.front(), 0u);
  EXPECT_EQ(seen.back(), 69u);
}

TEST(DenseBitsetTest, AndOrCombineWordWise) {
  DenseBitset a(100), b(100);
  a.Set(3);
  a.Set(70);
  a.Set(99);
  b.Set(70);
  b.Set(4);
  DenseBitset both = a;
  both.AndWith(b);
  EXPECT_EQ(both.Count(), 1u);
  EXPECT_TRUE(both.Test(70));
  DenseBitset either = a;
  either.OrWith(b);
  EXPECT_EQ(either.Count(), 4u);
  EXPECT_TRUE(either.Test(3));
  EXPECT_TRUE(either.Test(4));
}

TEST(DenseBitsetTest, ForEachSetBitVisitsAscending) {
  DenseBitset bits(200);
  const std::vector<size_t> expected = {1, 63, 64, 65, 130, 199};
  for (size_t i : expected) bits.Set(i);
  std::vector<size_t> seen;
  bits.ForEachSetBit([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

// -- EventBitmapIndex -----------------------------------------------------

class EventBitmapIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/17, /*num_videos=*/10);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
};

TEST_F(EventBitmapIndexTest, VideoBitsMirrorB2Positivity) {
  const EventBitmapIndex index(model_, catalog_);
  ASSERT_EQ(index.num_videos(), model_.num_videos());
  ASSERT_EQ(index.num_events(), model_.vocabulary().size());
  for (size_t e = 0; e < index.num_events(); ++e) {
    for (size_t v = 0; v < index.num_videos(); ++v) {
      EXPECT_EQ(index.VideoHasEvent(static_cast<VideoId>(v),
                                    static_cast<EventId>(e)),
                model_.b2().at(v, e) > 0.0)
          << "video " << v << " event " << e;
    }
  }
}

TEST_F(EventBitmapIndexTest, AnnotatedStateBitsMirrorTheCatalog) {
  const EventBitmapIndex index(model_, catalog_);
  for (size_t v = 0; v < model_.num_videos(); ++v) {
    const LocalShotModel& local = model_.local(static_cast<VideoId>(v));
    for (size_t e = 0; e < index.num_events(); ++e) {
      const DenseBitset& states =
          index.AnnotatedStates(static_cast<VideoId>(v),
                                static_cast<EventId>(e));
      ASSERT_EQ(states.size(), local.num_states());
      for (size_t t = 0; t < local.num_states(); ++t) {
        EXPECT_EQ(states.Test(t),
                  catalog_.shot(local.states[t]).HasEvent(
                      static_cast<EventId>(e)))
            << "video " << v << " state " << t << " event " << e;
      }
    }
  }
}

TEST_F(EventBitmapIndexTest, StepContainmentMatchesScalarSemantics) {
  const EventBitmapIndex index(model_, catalog_);
  // OR over alternatives of AND over events, against a direct B2 check.
  PatternStep step;
  step.alternatives = {{2, 0}, {1}};
  const DenseBitset videos = index.VideosContainingStep(step);
  for (size_t v = 0; v < model_.num_videos(); ++v) {
    const bool expected = (model_.b2().at(v, 2) > 0.0 &&
                           model_.b2().at(v, 0) > 0.0) ||
                          model_.b2().at(v, 1) > 0.0;
    EXPECT_EQ(index.VideoContainsStep(static_cast<VideoId>(v), step), expected);
    EXPECT_EQ(videos.Test(v), expected);
  }
}

TEST_F(EventBitmapIndexTest, EmptyAlternativeIsTriviallySatisfied) {
  const EventBitmapIndex index(model_, catalog_);
  PatternStep step;
  step.alternatives = {{}};  // AND over zero events
  EXPECT_EQ(index.VideosContainingStep(step).Count(), model_.num_videos());
  DenseBitset states(model_.local(0).num_states());
  DenseBitset scratch;
  index.StatesAnnotatedForStep(0, step, &states, &scratch);
  EXPECT_EQ(states.Count(), model_.local(0).num_states());
}

TEST_F(EventBitmapIndexTest, FreshnessTracksTheModelVersionCounter) {
  const EventBitmapIndex index(model_, catalog_);
  EXPECT_EQ(index.model_version(), model_.version());
  EXPECT_TRUE(index.FreshFor(model_));
  model_.BumpVersion();
  EXPECT_FALSE(index.FreshFor(model_));
  const EventBitmapIndex rebuilt(model_, catalog_);
  EXPECT_TRUE(rebuilt.FreshFor(model_));
}

TEST_F(EventBitmapIndexTest, OrderMemoKeepsTheFirstOrderAndIsCapped) {
  const EventBitmapIndex index(model_, catalog_);
  const size_t cap = EventBitmapIndex::kMaxMemoizedVideoOrders;
  // Distinct keys: the bitset with only bit k set, over cap + 1 bits.
  const auto key = [&](size_t k) {
    DenseBitset bits(cap + 1);
    bits.Set(k);
    return bits;
  };
  EXPECT_EQ(index.FindVideoOrder(key(0)), nullptr);
  for (size_t k = 0; k <= cap; ++k) {
    index.StoreVideoOrder(key(k), {{static_cast<VideoId>(k)}, 1});
  }
  index.StoreVideoOrder(key(0), {{99}, 1});  // a second store keeps the first
  for (size_t k = 0; k < cap; ++k) {
    const auto stored = index.FindVideoOrder(key(k));
    ASSERT_NE(stored, nullptr) << k;
    EXPECT_EQ(stored->order, std::vector<VideoId>{static_cast<VideoId>(k)});
  }
  EXPECT_EQ(index.FindVideoOrder(key(cap)), nullptr);  // beyond the cap
}

// -- QueryPlan ------------------------------------------------------------

class QueryPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/17, /*num_videos=*/10);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
  }

  VideoCatalog catalog_;
  HierarchicalModel model_;
};

TEST_F(QueryPlanTest, StepSimilarityIsMemoizedPerWalk) {
  const EventBitmapIndex index(model_, catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  QueryPlan plan(model_, index, pattern, ScorerOptions{});
  plan.BeginVideoWalk();

  SimilarityScorer reference(model_, ScorerOptions{});
  const double expected = reference.StepSimilarity(0, pattern.steps[0]);

  const size_t before = plan.scorer().evaluations();
  const double first = plan.StepSimilarity(0, 0);
  EXPECT_EQ(first, expected);
  EXPECT_GT(plan.scorer().evaluations(), before);
  EXPECT_EQ(plan.memo_hits(), 0u);

  const size_t after_first = plan.scorer().evaluations();
  const double second = plan.StepSimilarity(0, 0);
  EXPECT_EQ(second, first);
  EXPECT_EQ(plan.scorer().evaluations(), after_first);  // served from memo
  EXPECT_EQ(plan.memo_hits(), 1u);

  // A different step is a different memo slot.
  plan.StepSimilarity(0, 1);
  EXPECT_GT(plan.scorer().evaluations(), after_first);
  EXPECT_EQ(plan.memo_hits(), 1u);
}

TEST_F(QueryPlanTest, BeginVideoWalkInvalidatesMemoAndCandidateCache) {
  const EventBitmapIndex index(model_, catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  QueryPlan plan(model_, index, pattern, ScorerOptions{});

  plan.BeginVideoWalk();
  plan.StepSimilarity(0, 0);
  const std::vector<int> states = plan.AnnotatedStates(0, 0);
  EXPECT_EQ(plan.candidate_reuse(), 0u);
  EXPECT_EQ(plan.AnnotatedStates(0, 0), states);
  EXPECT_EQ(plan.candidate_reuse(), 1u);

  // A new walk re-evaluates: the epoch bump empties both caches.
  plan.BeginVideoWalk();
  const size_t evals = plan.scorer().evaluations();
  plan.StepSimilarity(0, 0);
  EXPECT_GT(plan.scorer().evaluations(), evals);
  EXPECT_EQ(plan.memo_hits(), 0u);
  EXPECT_EQ(plan.AnnotatedStates(0, 0), states);
  EXPECT_EQ(plan.candidate_reuse(), 1u);  // recomputed, not reused
}

TEST_F(QueryPlanTest, AnnotatedStatesMatchACatalogScan) {
  const EventBitmapIndex index(model_, catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  QueryPlan plan(model_, index, pattern, ScorerOptions{});
  plan.BeginVideoWalk();
  for (size_t v = 0; v < model_.num_videos(); ++v) {
    const LocalShotModel& local = model_.local(static_cast<VideoId>(v));
    std::vector<int> expected;
    for (size_t t = 0; t < local.num_states(); ++t) {
      if (catalog_.shot(local.states[t]).HasEvent(2)) {
        expected.push_back(static_cast<int>(t));
      }
    }
    EXPECT_EQ(plan.AnnotatedStates(static_cast<VideoId>(v), 0), expected)
        << "video " << v;
  }
}

TEST_F(QueryPlanTest, PathArenaMaterializesHeadFirst) {
  const EventBitmapIndex index(model_, catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  QueryPlan plan(model_, index, pattern, ScorerOptions{});
  plan.BeginVideoWalk();
  const int a = plan.AddPathNode(-1, 0, 0.5);
  const int b = plan.AddPathNode(a, 1, 0.25);
  const int c = plan.AddPathNode(b, 2, 0.125);
  std::vector<ShotId> shots;
  std::vector<double> weights;
  plan.MaterializePath(c, &shots, &weights);
  ASSERT_EQ(shots.size(), 3u);
  EXPECT_EQ(shots[0], model_.ShotOfGlobalState(0));
  EXPECT_EQ(shots[1], model_.ShotOfGlobalState(1));
  EXPECT_EQ(shots[2], model_.ShotOfGlobalState(2));
  EXPECT_EQ(weights, (std::vector<double>{0.5, 0.25, 0.125}));
}

// -- Walk-scoped caches ---------------------------------------------------

// More distinct (state, step) pairs than the memo's initial buckets: the
// table grows mid-walk and every stored value must survive the rehash.
TEST_F(QueryPlanTest, MemoSurvivesGrowthPastItsInitialCapacity) {
  const EventBitmapIndex index(model_, catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  QueryPlan plan(model_, index, pattern, ScorerOptions{});
  const size_t num_states = model_.num_global_states();
  const size_t pairs = num_states * pattern.size();
  ASSERT_GT(pairs, 2 * WalkScopedMap<double>::kInitialBuckets);

  SimilarityScorer reference(model_, ScorerOptions{});
  plan.BeginVideoWalk();
  for (size_t s = 0; s < num_states; ++s) {
    for (size_t j = 0; j < pattern.size(); ++j) {
      EXPECT_EQ(plan.StepSimilarity(static_cast<int>(s), j),
                reference.StepSimilarity(static_cast<int>(s),
                                         pattern.steps[j]))
          << "state " << s << " step " << j;
    }
  }
  EXPECT_EQ(plan.memo_hits(), 0u);
  const size_t evaluations = plan.scorer().evaluations();

  // Every repeat is an exact hit, costs no evaluation, and returns the
  // same bits the first call did.
  for (size_t s = 0; s < num_states; ++s) {
    for (size_t j = 0; j < pattern.size(); ++j) {
      EXPECT_EQ(plan.StepSimilarity(static_cast<int>(s), j),
                reference.StepSimilarity(static_cast<int>(s),
                                         pattern.steps[j]))
          << "state " << s << " step " << j;
    }
  }
  EXPECT_EQ(plan.memo_hits(), pairs);
  EXPECT_EQ(plan.scorer().evaluations(), evaluations);

  // BeginVideoWalk empties the grown memo: every pair is paid again.
  plan.BeginVideoWalk();
  for (size_t s = 0; s < num_states; ++s) {
    for (size_t j = 0; j < pattern.size(); ++j) {
      plan.StepSimilarity(static_cast<int>(s), j);
    }
  }
  EXPECT_EQ(plan.memo_hits(), pairs);
  EXPECT_EQ(plan.scorer().evaluations(), 2 * evaluations);
}

// Candidate lists for more (video, step) keys than the cache's initial
// buckets: a reference taken first must stay valid while the cache grows,
// and BeginVideoWalk must empty the grown cache.
TEST_F(QueryPlanTest, AnnotatedStatesReferenceSurvivesLaterInsertions) {
  const EventBitmapIndex index(model_, catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1, 3, 2, 0, 1, 3});
  QueryPlan plan(model_, index, pattern, ScorerOptions{});
  const size_t keys = model_.num_videos() * pattern.size();
  ASSERT_GT(keys, WalkScopedMap<uint32_t>::kInitialBuckets);

  plan.BeginVideoWalk();
  const std::vector<int>& first = plan.AnnotatedStates(0, 0);
  const std::vector<int> first_copy = first;
  std::vector<std::vector<int>> lists;
  for (size_t v = 0; v < model_.num_videos(); ++v) {
    for (size_t j = 0; j < pattern.size(); ++j) {
      lists.push_back(plan.AnnotatedStates(static_cast<VideoId>(v), j));
    }
  }
  EXPECT_EQ(first, first_copy);
  EXPECT_EQ(&plan.AnnotatedStates(0, 0), &first);
  EXPECT_EQ(plan.candidate_reuse(), 2u);  // (0, 0) in the loop, then above

  // Repeats are all served from the cache with unchanged contents.
  size_t at = 0;
  for (size_t v = 0; v < model_.num_videos(); ++v) {
    for (size_t j = 0; j < pattern.size(); ++j) {
      EXPECT_EQ(plan.AnnotatedStates(static_cast<VideoId>(v), j), lists[at++])
          << "video " << v << " step " << j;
    }
  }
  EXPECT_EQ(plan.candidate_reuse(), 2u + keys);

  // A new walk recomputes every list to the same contents.
  plan.BeginVideoWalk();
  at = 0;
  for (size_t v = 0; v < model_.num_videos(); ++v) {
    for (size_t j = 0; j < pattern.size(); ++j) {
      EXPECT_EQ(plan.AnnotatedStates(static_cast<VideoId>(v), j), lists[at++])
          << "video " << v << " step " << j;
    }
  }
  EXPECT_EQ(plan.candidate_reuse(), 2u + keys);
}

// The step's video set is built once and agrees with the index.
TEST_F(QueryPlanTest, StepVideosMatchTheIndex) {
  const EventBitmapIndex index(model_, catalog_);
  TemporalPattern pattern = TemporalPattern::FromEvents({2, 0});
  pattern.steps[1].alternatives = {{1}, {3, 0}};
  QueryPlan plan(model_, index, pattern, ScorerOptions{});
  for (size_t j = 0; j < pattern.size(); ++j) {
    const DenseBitset& videos = plan.StepVideos(j);
    EXPECT_EQ(videos, index.VideosContainingStep(pattern.steps[j])) << j;
    EXPECT_EQ(&plan.StepVideos(j), &videos) << j;
  }
}

// -- Exact priorities (the cube-pruned frontier's oracle) -----------------

// Under default scorer options the on-demand priorities must mirror what
// the scorer would compute, bit for bit, without costing an evaluation —
// that equality is what lets SelectWinners skip cells unevaluated. Every
// step shape: single events, a conjunction (&), a disjunction (|), an
// empty alternative beside a real one, and only an empty alternative.
TEST_F(QueryPlanTest, ExactPrioritiesMirrorStepSimilarityBitForBit) {
  const EventBitmapIndex index(model_, catalog_);
  auto pattern = TemporalPattern::FromEvents({2, 0, 1, 0, 0, 0, 0});
  pattern.steps[3].alternatives = {{2, 0, 1}};
  pattern.steps[4].alternatives = {{1}, {3}, {0, 2}};
  pattern.steps[5].alternatives = {{}, {3, 1}};
  pattern.steps[6].alternatives = {{}};
  QueryPlan plan(model_, index, pattern, ScorerOptions{});
  ASSERT_TRUE(plan.exact_priorities());

  SimilarityScorer reference(model_, ScorerOptions{});
  const size_t evals_before = plan.scorer().evaluations();
  for (size_t s = 0; s < model_.num_global_states(); ++s) {
    for (size_t j = 0; j < pattern.size(); ++j) {
      EXPECT_EQ(plan.StepPriority(static_cast<int>(s), j),
                reference.StepSimilarity(static_cast<int>(s),
                                         pattern.steps[j]))
          << "state " << s << " step " << j;
    }
    EXPECT_EQ(plan.StepPriority(static_cast<int>(s), 6), 0.0);
  }
  // Reading priorities never touches the plan's scorer.
  EXPECT_EQ(plan.scorer().evaluations(), evals_before);
}

// The precomputed per-(state, event) sims in the index are the inputs to
// those priorities; they must match a query-time scorer exactly as well.
TEST_F(QueryPlanTest, IndexEventSimilarityMatchesScorerBitForBit) {
  const EventBitmapIndex index(model_, catalog_);
  SimilarityScorer reference(model_, ScorerOptions{});
  ASSERT_TRUE(index.HasExactSims(ScorerOptions{}));
  for (size_t s = 0; s < model_.num_global_states(); ++s) {
    for (size_t e = 0; e < index.num_events(); ++e) {
      EXPECT_EQ(index.EventSimilarity(static_cast<int>(s),
                                      static_cast<EventId>(e)),
                reference.EventSimilarity(static_cast<int>(s),
                                          static_cast<EventId>(e)))
          << "state " << s << " event " << e;
    }
  }
}

// Options the precomputation did not cover must degrade to +infinity
// priorities (every frontier cell pops → unpruned search, same results).
TEST_F(QueryPlanTest, NonExactOptionsDegradeToInfinitePriorities) {
  const EventBitmapIndex index(model_, catalog_);
  const auto pattern = TemporalPattern::FromEvents({2, 0});

  ScorerOptions subset;
  subset.feature_subset = {0, 1, 2};
  EXPECT_FALSE(index.HasExactSims(subset));
  QueryPlan subset_plan(model_, index, pattern, subset);
  EXPECT_FALSE(subset_plan.exact_priorities());
  EXPECT_TRUE(std::isinf(subset_plan.StepPriority(0, 0)));

  ScorerOptions epsilon;
  epsilon.centroid_epsilon = 1e-6;
  EXPECT_FALSE(index.HasExactSims(epsilon));
  QueryPlan epsilon_plan(model_, index, pattern, epsilon);
  EXPECT_FALSE(epsilon_plan.exact_priorities());

  // Kernel choice is NOT an exactness concern: all kernels agree bitwise.
  ScorerOptions scalar;
  scalar.force_scalar_kernel = true;
  EXPECT_TRUE(index.HasExactSims(scalar));
  QueryPlan scalar_plan(model_, index, pattern, scalar);
  EXPECT_TRUE(scalar_plan.exact_priorities());
}

// Building the index with an explicitly scalar batch kernel must yield
// the exact bits of the runtime-selected kernel (the A/B bench leans on
// this: only build time may differ).
TEST_F(QueryPlanTest, IndexBitsAreKernelInvariant) {
  const EventBitmapIndex fast(model_, catalog_);
  const EventBitmapIndex scalar(model_, catalog_, Eq14Kernel::kScalar);
  for (size_t s = 0; s < model_.num_global_states(); ++s) {
    for (size_t e = 0; e < fast.num_events(); ++e) {
      EXPECT_EQ(fast.EventSimilarity(static_cast<int>(s),
                                     static_cast<EventId>(e)),
                scalar.EventSimilarity(static_cast<int>(s),
                                       static_cast<EventId>(e)))
          << "state " << s << " event " << e;
    }
  }
}

// -- Engine integration ---------------------------------------------------

TEST(EngineIndexTest, SharedIndexIsReusedUntilTheVersionMoves) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(3, 6);
  auto engine = RetrievalEngine::Create(catalog);
  ASSERT_TRUE(engine.ok());

  const auto first = engine->SharedEventIndex();
  const auto second = engine->SharedEventIndex();
  EXPECT_EQ(first.get(), second.get());
  EXPECT_TRUE(first->FreshFor(engine->model()));

  // A version bump (what feedback training does) forces a rebuild; the
  // old instance stays alive for in-flight queries holding the shared_ptr.
  engine->mutable_model().BumpVersion();
  const auto rebuilt = engine->SharedEventIndex();
  EXPECT_NE(rebuilt.get(), first.get());
  EXPECT_TRUE(rebuilt->FreshFor(engine->model()));
  EXPECT_FALSE(first->FreshFor(engine->model()));
}

TEST(EngineIndexTest, QueriesStayCorrectAcrossAVersionBump) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(3, 6);
  auto engine = RetrievalEngine::Create(catalog);
  ASSERT_TRUE(engine.ok());
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  auto before = engine->Retrieve(pattern);
  ASSERT_TRUE(before.ok());
  engine->mutable_model().BumpVersion();  // no matrix change: same answers
  auto after = engine->Retrieve(pattern);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].shots, (*after)[i].shots);
    EXPECT_EQ((*before)[i].score, (*after)[i].score);
  }
}

}  // namespace
}  // namespace hmmm
