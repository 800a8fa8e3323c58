#include "api/video_database.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "media/news_generator.h"
#include "retrieval/metrics.h"
#include "storage/model_io.h"
#include "test_util.h"

namespace hmmm {
namespace {

TEST(VideoDatabaseTest, CreateAndQuery) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok()) << db.status();
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  const auto pattern =
      *CompileQuery("free_kick ; goal", db->catalog().vocabulary());
  EXPECT_TRUE(PatternMatchesAnnotations(db->catalog(),
                                        results->front().shots, pattern));
}

TEST(VideoDatabaseTest, CreateRejectsInvalidCatalog) {
  // A catalog is always valid through its own API; validate the check via
  // a mismatched Open instead (below). Create on an empty catalog works.
  auto db = VideoDatabase::Create(VideoCatalog(SoccerEvents(), 4));
  ASSERT_TRUE(db.ok());
  auto results = db->Query("goal");
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(VideoDatabaseTest, SaveOpenRoundTrip) {
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(5, 6));
  ASSERT_TRUE(db.ok());
  auto expected = db->Query("goal");
  ASSERT_TRUE(expected.ok());

  const std::string catalog_path = testing::TempPath("vdb_test.cat");
  const std::string model_path = testing::TempPath("vdb_test.hmmm");
  ASSERT_TRUE(db->Save(catalog_path, model_path).ok());

  auto reopened = VideoDatabase::Open(catalog_path, model_path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto results = reopened->Query("goal");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), expected->size());
  for (size_t i = 0; i < results->size(); ++i) {
    EXPECT_EQ((*results)[i].shots, (*expected)[i].shots);
  }
  std::remove(catalog_path.c_str());
  std::remove(model_path.c_str());
}

TEST(VideoDatabaseTest, OpenRejectsMismatchedPair) {
  auto db_a = VideoDatabase::Create(testing::GeneratedSoccerCatalog(5, 6));
  auto db_b = VideoDatabase::Create(testing::GeneratedSoccerCatalog(6, 9));
  ASSERT_TRUE(db_a.ok());
  ASSERT_TRUE(db_b.ok());
  const std::string catalog_path = testing::TempPath("vdb_mismatch.cat");
  const std::string model_path = testing::TempPath("vdb_mismatch.hmmm");
  ASSERT_TRUE(SaveCatalog(db_a->catalog(), catalog_path).ok());
  ASSERT_TRUE(db_b->model().SaveToFile(model_path).ok());
  auto opened = VideoDatabase::Open(catalog_path, model_path);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
  std::remove(catalog_path.c_str());
  std::remove(model_path.c_str());
}

TEST(VideoDatabaseTest, FeedbackThresholdAutoTrains) {
  VideoDatabaseOptions options;
  options.feedback.retrain_threshold = 2;
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog(), options);
  ASSERT_TRUE(db.ok());
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());

  EXPECT_EQ(db->training_rounds(), 0u);
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  EXPECT_EQ(db->training_rounds(), 0u);  // below threshold
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  EXPECT_EQ(db->training_rounds(), 1u);  // threshold reached
  EXPECT_TRUE(db->model().Validate().ok());
}

// Four threads query back to back, every read a traversal, while a
// feedback round waits for the exclusive state lock. Readers that arrive
// after the round asked for the lock queue behind it, so the round
// finishes within a bounded number of reads: the ones already in flight,
// plus a few that pass before the writer reaches the lock. A 1,000-video
// archive makes a read take about 1 ms, so the bound leaves room for a
// writer descheduled for tens of milliseconds. With a reader-preferring
// lock the same round waited through hundreds of thousands of reads.
TEST(StateLockTest, FeedbackRoundIsNotStarvedByReaders) {
  constexpr int kReaders = 4;
  constexpr int kMaxReadsDuringRound = 16 * kReaders;
  VideoDatabaseOptions options;
  options.query_cache_entries = 0;
  options.traversal.num_threads = 1;
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(3, 1000),
                                  options);
  ASSERT_TRUE(db.ok()) << db.status();
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_FALSE(results->empty());

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        EXPECT_TRUE(db->Query("free_kick ; goal").ok());
        reads.fetch_add(1);
      }
    });
  }
  while (reads.load() < 4 * kReaders) std::this_thread::yield();
  const int before = reads.load();
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  auto trained = db->Train();
  const int during = reads.load() - before;
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE(trained.ok()) << trained.status();
  EXPECT_TRUE(*trained);
  EXPECT_LE(during, kMaxReadsDuringRound);
}

TEST(VideoDatabaseTest, ForceTrain) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  auto results = db->Query("goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  auto trained = db->Train();
  ASSERT_TRUE(trained.ok());
  EXPECT_TRUE(*trained);
}

TEST(VideoDatabaseTest, QueryByExampleAndMoreLike) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  std::vector<double> example(8, 0.1);
  example[0] = 0.9;  // goal-like
  auto qbe = db->QueryByExample(example);
  ASSERT_TRUE(qbe.ok());
  ASSERT_FALSE(qbe->empty());
  EXPECT_TRUE(db->catalog().shot(qbe->front().shot).HasEvent(0));

  auto similar = db->MoreLikeShot(4);
  ASSERT_TRUE(similar.ok());
  EXPECT_FALSE(similar->empty());
}

TEST(VideoDatabaseTest, CategoryLevelOptional) {
  auto plain = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->categories(), nullptr);

  VideoDatabaseOptions options;
  options.enable_category_level = true;
  options.categories.num_clusters = 2;
  auto layered = VideoDatabase::Create(testing::GeneratedSoccerCatalog(3, 8),
                                       options);
  ASSERT_TRUE(layered.ok());
  ASSERT_NE(layered->categories(), nullptr);
  EXPECT_EQ(layered->categories()->num_clusters(), 2u);
  auto results = layered->Query("goal");
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
}

TEST(VideoDatabaseTest, RebuildCategories) {
  VideoDatabaseOptions options;
  options.enable_category_level = true;
  auto db = VideoDatabase::Create(testing::GeneratedSoccerCatalog(3, 8),
                                  options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->RebuildCategories().ok());
  EXPECT_NE(db->categories(), nullptr);
}

TEST(VideoDatabaseTest, ReplaceCatalogPreservesLearning) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  auto results = db->Query("free_kick ; corner_kick");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  ASSERT_TRUE(db->Train().ok());
  const Matrix learned_a1 = db->model().local(0).a1;

  // Grow the archive by one video and swap it in.
  VideoCatalog grown = testing::SmallSoccerCatalog();
  const VideoId v2 = grown.AddVideo("video_c");
  ASSERT_TRUE(grown.AddShot(v2, 0.0, 3.0, {4},
                            testing::FeatureVector(8, 0.1, {4}, 0.9)).ok());
  ASSERT_TRUE(db->ReplaceCatalog(std::move(grown)).ok());

  EXPECT_EQ(db->catalog().num_videos(), 3u);
  EXPECT_EQ(db->model().num_videos(), 3u);
  EXPECT_LT(db->model().local(0).a1.MaxAbsDiff(learned_a1), 1e-12);
  // Queries (including against the new video's event) still work.
  auto goal_kick = db->Query("goal_kick");
  ASSERT_TRUE(goal_kick.ok());
  EXPECT_FALSE(goal_kick->empty());
}

TEST(VideoDatabaseTest, ReplaceCatalogInvalidatesCachedRankings) {
  // Regression test: a rebuilt model's version counter restarts at zero,
  // so the query cache's (signature, version) guard alone cannot tell a
  // swapped-in catalog from the one a cached ranking was computed under.
  // Without the explicit ClearQueryCache inside ReplaceCatalog, the query
  // below would replay the 2-video ranking against the 3-video archive.
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  auto before = db->Query("goal");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(db->cache_stats().entries, 1u);

  VideoCatalog grown = testing::SmallSoccerCatalog();
  const VideoId v2 = grown.AddVideo("video_c");
  ASSERT_TRUE(grown.AddShot(v2, 0.0, 3.0, {0},
                            testing::FeatureVector(8, 0.1, {0}, 0.9)).ok());
  ASSERT_TRUE(db->ReplaceCatalog(std::move(grown)).ok());
  EXPECT_EQ(db->cache_stats().entries, 0u);

  auto after = db->Query("goal");
  ASSERT_TRUE(after.ok());
  // The new video's goal shot must show up — a stale cached ranking
  // cannot contain it.
  bool found_new_video = false;
  for (const RetrievedPattern& pattern : *after) {
    if (pattern.video == v2) found_new_video = true;
  }
  EXPECT_TRUE(found_new_video);
  EXPECT_GT(after->size(), before->size());
}

TEST(VideoDatabaseTest, TrainingClearsCachedRankings) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ(db->cache_stats().entries, 1u);
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  ASSERT_TRUE(db->Train().ok());
  // Retraining mutates the model in place; cached pre-training rankings
  // are gone.
  EXPECT_EQ(db->cache_stats().entries, 0u);

  // ClearQueryCache is also callable directly.
  ASSERT_TRUE(db->Query("free_kick ; goal").ok());
  EXPECT_EQ(db->cache_stats().entries, 1u);
  db->ClearQueryCache();
  EXPECT_EQ(db->cache_stats().entries, 0u);
}

TEST(VideoDatabaseTest, MoveSemantics) {
  auto db = VideoDatabase::Create(testing::SmallSoccerCatalog());
  ASSERT_TRUE(db.ok());
  VideoDatabase moved = std::move(db).value();
  auto results = moved.Query("goal");
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
}

}  // namespace
}  // namespace hmmm
