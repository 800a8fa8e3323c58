// Differential test of Step 2 (HmmmTraversal::VideoOrder) against the
// dense chain it replaced (dense_step2_oracle.h). The uniform-row chain
// takes the smallest unvisited containing video instead of scanning, so
// every kind of A2 row it can meet is generated here: the builder's
// uniform rows, RebuildPreservingLearning's (c, width < m) rows, shard
// slices, trained dense rows, all-zero rows of both kinds, dense rows
// with ties, and Pi2 ties.

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog_partition.h"
#include "common/cancellation.h"
#include "common/rng.h"
#include "core/learner.h"
#include "core/model_builder.h"
#include "dense_step2_oracle.h"
#include "query/translator.h"
#include "retrieval/traversal.h"
#include "test_util.h"

namespace hmmm {
namespace {

struct Case {
  std::string name;
  VideoCatalog catalog;
  HierarchicalModel model;
};

HierarchicalModel Build(const VideoCatalog& catalog) {
  auto model = ModelBuilder(catalog).Build();
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

/// A feedback round over random videos with positive counts.
std::vector<AccessPattern> RandomRound(Rng& rng, size_t num_videos) {
  std::vector<AccessPattern> patterns(static_cast<size_t>(rng.NextInt(1, 4)));
  for (AccessPattern& pattern : patterns) {
    const int width = rng.NextInt(1, 4);
    for (int i = 0; i < width; ++i) {
      pattern.states.push_back(
          rng.NextInt(0, static_cast<int>(num_videos) - 1));
    }
    pattern.access_count = rng.NextBernoulli(0.5) ? 1.0 : rng.NextDouble();
  }
  return patterns;
}

/// Pi2 over a few repeated values, so the seed pick and the rest's order
/// meet ties.
std::vector<double> TiedPi2(Rng& rng, size_t num_videos) {
  const double levels[] = {0.1, 0.2, 0.2, 0.4};
  std::vector<double> pi2(num_videos);
  for (double& p : pi2) p = levels[rng.NextInt(0, 3)];
  return pi2;
}

/// Ten models over one catalog, one per kind of A2 the chain can meet.
std::vector<Case> CasesFor(uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  const int num_videos = 3 + static_cast<int>(seed % 14);
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(seed, num_videos);
  const size_t m = catalog.num_videos();
  const HierarchicalModel built = Build(catalog);
  std::vector<Case> cases;
  const auto add = [&](std::string name, HierarchicalModel model) {
    cases.push_back({std::move(name), catalog, std::move(model)});
  };

  add("built", built);  // all (1/m, m) rows, uniform Pi2

  HierarchicalModel tied = built;
  tied.mutable_pi2() = TiedPi2(rng, m);
  add("pi2_ties", std::move(tied));

  HierarchicalModel trained = built;
  EXPECT_TRUE(
      OfflineLearner().ApplyVideoPatterns(trained, RandomRound(rng, m)).ok());
  add("trained", trained);

  // A smaller archive's trained model carried into this one: its
  // untrained rows become (c, old_m) and the new rows (c', m).
  const int old_videos = std::max(1, num_videos - 1 - rng.NextInt(0, 2));
  const VideoCatalog old_catalog =
      testing::GeneratedSoccerCatalog(seed + 1000, old_videos);
  HierarchicalModel old_model = Build(old_catalog);
  EXPECT_TRUE(OfflineLearner()
                  .ApplyVideoPatterns(old_model,
                                      RandomRound(rng, old_model.num_videos()))
                  .ok());
  auto rebuilt = RebuildPreservingLearning(old_model, catalog);
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status();
  add("rebuilt", *rebuilt);

  // All-zero rows, uniform (0, w) and (c, 0) and dense, among trained.
  HierarchicalModel zeros = trained;
  for (size_t r = 0; r < m; ++r) {
    switch (rng.NextInt(0, 3)) {
      case 0:
        zeros.mutable_a2().SetUniform(r, 0.0, m);
        break;
      case 1:
        zeros.mutable_a2().SetUniform(r, 0.5, 0);
        break;
      case 2: {
        double* row = zeros.mutable_a2().MutableRow(r);
        std::fill(row, row + m, 0.0);
        break;
      }
      default:
        break;
    }
  }
  add("zero_rows", std::move(zeros));

  // Uniform rows of every width, and dense rows over a few tied values.
  HierarchicalModel mixed = built;
  for (size_t r = 0; r < m; ++r) {
    if (rng.NextBernoulli(0.5)) {
      const size_t width = static_cast<size_t>(rng.NextInt(0, static_cast<int>(m)));
      mixed.mutable_a2().SetUniform(r, rng.NextDouble(), width);
    } else {
      const double levels[] = {0.0, 0.25, 0.25, 0.5};
      double* row = mixed.mutable_a2().MutableRow(r);
      for (size_t c = 0; c < m; ++c) row[c] = levels[rng.NextInt(0, 3)];
    }
  }
  mixed.mutable_pi2() = TiedPi2(rng, m);
  add("mixed", std::move(mixed));

  // Shard slices of the built and the trained model.
  for (int shards : {2, 4}) {
    if (static_cast<size_t>(shards) > m) continue;
    for (const HierarchicalModel* full :
         {&built, static_cast<const HierarchicalModel*>(&trained)}) {
      auto parts = PartitionForServing(catalog, *full, shards);
      EXPECT_TRUE(parts.ok()) << parts.status();
      if (!parts.ok()) continue;
      for (CatalogShard& shard : *parts) {
        cases.push_back({"slice" + std::to_string(shards),
                         std::move(shard.catalog), std::move(shard.model)});
      }
    }
  }
  return cases;
}

TEST(Step2OracleTest, VideoOrderMatchesTheDenseChainOverEveryRowKind) {
  size_t models = 0;
  size_t uniform_rows = 0;
  size_t chained_picks = 0;
  for (uint64_t seed = 1; models < 200; ++seed) {
    for (const Case& c : CasesFor(seed)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      ++models;
      const Matrix dense = c.model.a2().ToDense();
      for (size_t r = 0; r < c.model.a2().rows(); ++r) {
        uniform_rows += c.model.a2().IsUniform(r) ? 1 : 0;
      }
      const EventBitmapIndex index(c.model, c.catalog);
      const HmmmTraversal traversal(c.model, c.catalog, TraversalOptions{},
                                    nullptr, &index);
      for (EventId e = 0;
           static_cast<size_t>(e) < c.catalog.vocabulary().size(); ++e) {
        const TemporalPattern pattern = TemporalPattern::FromEvents({e});
        const DenseBitset containing =
            index.VideosContainingStep(pattern.steps.front());
        const testing::DenseVideoOrderResult expected =
            testing::DenseVideoOrder(dense, c.model.pi2(), containing);
        EXPECT_EQ(traversal.VideoOrder(pattern), expected.order)
            << "event " << e;
        const auto memo = index.FindVideoOrder(containing);
        ASSERT_NE(memo, nullptr) << "event " << e;
        EXPECT_EQ(memo->chain_length, expected.chain_length) << "event " << e;
        chained_picks += expected.chain_length > 0 ? expected.chain_length - 1 : 0;
        EXPECT_EQ(memo->order, expected.order) << "event " << e;
        // A memo hit answers the same.
        EXPECT_EQ(traversal.VideoOrder(pattern), expected.order);
      }
    }
  }
  // The generator reaches both chain branches many times over.
  EXPECT_GT(uniform_rows, 500u);
  EXPECT_GT(chained_picks, 1000u);
}

TEST(Step2OracleTest, ExpiredDeadlineAndCancellationCutAtTheFirstPoll) {
  for (uint64_t seed : {2, 9}) {
    for (const Case& c : CasesFor(seed)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      const TemporalPattern pattern = TemporalPattern::FromEvents({0});
      TraversalOptions late;
      late.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
      EXPECT_TRUE(HmmmTraversal(c.model, c.catalog, late)
                      .VideoOrder(pattern)
                      .empty());
      CancellationToken token;
      token.Cancel();
      TraversalOptions cancelled;
      cancelled.cancellation = &token;
      EXPECT_TRUE(HmmmTraversal(c.model, c.catalog, cancelled)
                      .VideoOrder(pattern)
                      .empty());
    }
  }
}

}  // namespace
}  // namespace hmmm
