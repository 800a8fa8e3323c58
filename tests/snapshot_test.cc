#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/video_database.h"
#include "common/serialization.h"
#include "core/learner.h"
#include "core/model_builder.h"
#include "observability/metrics_registry.h"
#include "observability/query_trace.h"
#include "snapshot/snapshot_format.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "test_util.h"

namespace hmmm {
namespace {

// The snapshot contract is byte-identity: a database served from mapped
// pages must be indistinguishable — raw-double scores included — from
// the heap-built database the snapshot froze.
void ExpectIdenticalResults(const std::vector<RetrievedPattern>& expected,
                            const std::vector<RetrievedPattern>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].shots, actual[i].shots) << "rank " << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << "rank " << i;
    EXPECT_EQ(expected[i].video, actual[i].video) << "rank " << i;
    EXPECT_EQ(expected[i].edge_weights, actual[i].edge_weights)
        << "rank " << i;
    EXPECT_EQ(expected[i].crosses_videos, actual[i].crosses_videos)
        << "rank " << i;
  }
}

/// The A2 rows that are dense (owned or borrowed), ascending.
std::vector<size_t> DenseRows(const VideoAffinity& a2) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < a2.rows(); ++r) {
    if (!a2.IsUniform(r)) rows.push_back(r);
  }
  return rows;
}

/// The A2 rows that own their storage, ascending.
std::vector<size_t> OwnedRows(const VideoAffinity& a2) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < a2.rows(); ++r) {
    if (a2.IsOwned(r)) rows.push_back(r);
  }
  return rows;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.ptr(), b.ptr(), a.size() * sizeof(double)) == 0;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/7, /*num_videos=*/6);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok()) << model.status();
    model_ = std::move(model).value();
    path_ = testing::TempPath("snapshot_test.hmms");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  VideoCatalog catalog_;
  HierarchicalModel model_;
  std::string path_;
};

TEST_F(SnapshotTest, RoundTripRebuildsCatalogExactly) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto rebuilt = (*reader)->BuildCatalog();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  ASSERT_EQ(rebuilt->num_videos(), catalog_.num_videos());
  ASSERT_EQ(rebuilt->num_shots(), catalog_.num_shots());
  EXPECT_EQ(rebuilt->num_features(), catalog_.num_features());
  ASSERT_EQ(rebuilt->vocabulary().size(), catalog_.vocabulary().size());
  for (size_t e = 0; e < catalog_.vocabulary().size(); ++e) {
    EXPECT_EQ(rebuilt->vocabulary().Name(static_cast<int>(e)),
              catalog_.vocabulary().Name(static_cast<int>(e)));
  }
  for (size_t v = 0; v < catalog_.num_videos(); ++v) {
    EXPECT_EQ(rebuilt->videos()[v].name, catalog_.videos()[v].name);
    EXPECT_EQ(rebuilt->videos()[v].shots, catalog_.videos()[v].shots);
  }
  for (size_t s = 0; s < catalog_.num_shots(); ++s) {
    const ShotRecord& a = catalog_.shots()[s];
    const ShotRecord& b = rebuilt->shots()[s];
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.video_id, a.video_id);
    EXPECT_EQ(b.index_in_video, a.index_in_video);
    EXPECT_EQ(b.begin_time, a.begin_time);
    EXPECT_EQ(b.end_time, a.end_time);
    EXPECT_EQ(b.events, a.events);
    EXPECT_EQ(rebuilt->raw_features_of(a.id), catalog_.raw_features_of(a.id));
  }
}

TEST_F(SnapshotTest, RoundTripRebuildsModelExactly) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto rebuilt = (*reader)->BuildModel();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  EXPECT_TRUE(rebuilt->b1() == model_.b1());
  EXPECT_TRUE(SameBits(rebuilt->a2().ToDense(), model_.a2().ToDense()));
  EXPECT_TRUE(rebuilt->b2() == model_.b2());
  EXPECT_TRUE(rebuilt->p12() == model_.p12());
  EXPECT_TRUE(rebuilt->b1_prime() == model_.b1_prime());
  EXPECT_EQ(rebuilt->pi2(), model_.pi2());
  ASSERT_EQ(rebuilt->locals().size(), model_.locals().size());
  for (size_t v = 0; v < model_.locals().size(); ++v) {
    EXPECT_EQ(rebuilt->locals()[v].video_id, model_.locals()[v].video_id);
    EXPECT_EQ(rebuilt->locals()[v].states, model_.locals()[v].states);
    EXPECT_EQ(rebuilt->locals()[v].pi1, model_.locals()[v].pi1);
    EXPECT_TRUE(rebuilt->locals()[v].a1 == model_.locals()[v].a1);
  }
}

TEST_F(SnapshotTest, MappedMatricesAreBorrowedAndAligned) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto model = (*reader)->BuildModel();
  ASSERT_TRUE(model.ok()) << model.status();
  auto catalog = (*reader)->BuildCatalog();
  ASSERT_TRUE(catalog.ok()) << catalog.status();

  const auto aligned = [](const Matrix& m) {
    return reinterpret_cast<uintptr_t>(m.ptr()) % kSnapshotAlignment == 0;
  };
  for (const Matrix* m : {&model->b1(), &model->b2(), &model->p12(),
                          &model->b1_prime()}) {
    EXPECT_TRUE(m->borrowed());
    EXPECT_TRUE(aligned(*m));
  }
  for (const LocalShotModel& local : model->locals()) {
    EXPECT_TRUE(local.a1.borrowed());
    EXPECT_TRUE(aligned(local.a1));
  }
  // An untrained A2 is all uniform rows: nothing of it to map.
  EXPECT_TRUE(DenseRows(model->a2()).empty());
  // The BB1 feature table serves straight from the mapped pages too.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(catalog->RawFeatureRow(0)) %
                kSnapshotAlignment,
            0u);
}

TEST_F(SnapshotTest, HeaderCarriesGenerationVersionAndIndexFlag) {
  SnapshotWriteOptions options;
  options.generation = 41;
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_, options).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->generation(), 41u);
  EXPECT_EQ((*reader)->frozen_model_version(), model_.version());
  EXPECT_TRUE((*reader)->has_event_index());
  EXPECT_FALSE((*reader)->sections().empty());
}

TEST_F(SnapshotTest, FrozenEventIndexAdoptsMappedSims) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto model = (*reader)->BuildModel();
  ASSERT_TRUE(model.ok());
  auto catalog = (*reader)->BuildCatalog();
  ASSERT_TRUE(catalog.ok());
  auto index = (*reader)->BuildEventIndex(*model, *catalog);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_TRUE(index->event_sims().borrowed());
  EXPECT_TRUE(index->FreshFor(*model));

  // Frozen sims must equal a from-scratch rebuild exactly.
  const EventBitmapIndex fresh(*model, *catalog);
  EXPECT_TRUE(index->event_sims() == fresh.event_sims());
}

TEST_F(SnapshotTest, SnapshotWithoutIndexStillOpens) {
  SnapshotWriteOptions options;
  options.include_event_index = false;
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_, options).ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_FALSE((*reader)->has_event_index());
  auto model = (*reader)->BuildModel();
  ASSERT_TRUE(model.ok());
  auto catalog = (*reader)->BuildCatalog();
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*reader)->BuildEventIndex(*model, *catalog).status().code(),
            StatusCode::kNotFound);

  auto db = VideoDatabase::OpenSnapshot(path_);
  ASSERT_TRUE(db.ok()) << db.status();
  auto results = db->Query("free_kick ; goal");
  EXPECT_TRUE(results.ok()) << results.status();
}

TEST_F(SnapshotTest, ImageIsDeterministicAndMatchesFile) {
  const std::string first = BuildSnapshotImage(model_, catalog_);
  const std::string second = BuildSnapshotImage(model_, catalog_);
  EXPECT_EQ(first, second);

  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, first);
}

TEST_F(SnapshotTest, MappedRankingsMatchHeapAtEveryThreadCountAndKernel) {
  VideoDatabaseOptions base;
  auto heap = VideoDatabase::Create(VideoCatalog(catalog_), base);
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_TRUE(heap->WriteSnapshot(path_).ok());

  const std::vector<std::string> queries = {"free_kick ; goal", "goal",
                                            "corner_kick ; goal"};
  for (int threads : {1, 2, 4}) {
    for (bool scalar : {false, true}) {
      VideoDatabaseOptions options;
      options.traversal.num_threads = threads;
      options.traversal.scorer.force_scalar_kernel = scalar;
      auto heap_db = VideoDatabase::Create(VideoCatalog(catalog_), options);
      ASSERT_TRUE(heap_db.ok()) << heap_db.status();
      auto mapped_db = VideoDatabase::OpenSnapshot(path_, options);
      ASSERT_TRUE(mapped_db.ok()) << mapped_db.status();
      for (const std::string& query : queries) {
        auto expected = heap_db->Query(query);
        ASSERT_TRUE(expected.ok()) << expected.status();
        auto actual = mapped_db->Query(query);
        ASSERT_TRUE(actual.ok()) << actual.status();
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " scalar=" + std::to_string(scalar) + " query=" + query);
        ExpectIdenticalResults(*expected, *actual);
      }
    }
  }
}

TEST_F(SnapshotTest, SharedIndexIsBuiltOncePerModelVersion) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_).ok());
  VideoDatabaseOptions options;
  options.query_cache_entries = 0;  // every query runs a traversal
  auto db = VideoDatabase::OpenSnapshot(path_, options);
  ASSERT_TRUE(db.ok()) << db.status();
  const auto builds = [&] {
    return db->metrics_registry()
        .GetCounter("hmmm_event_index_builds_total")
        ->value();
  };
  const std::vector<std::string> queries = {"free_kick ; goal", "goal",
                                            "corner_kick ; goal", "goal"};
  const auto run_queries = [&] {
    for (const std::string& query : queries) {
      auto results = db->Query(query);
      ASSERT_TRUE(results.ok()) << results.status();
    }
  };
  // Traced query: which root spans it recorded, and whether Step 2 was a
  // memo hit.
  const auto traced_query = [&](const std::string& query, size_t* builds_seen,
                                uint64_t* memo_hit) {
    QueryTrace trace;
    QueryControls controls;
    controls.trace = &trace;
    ASSERT_TRUE(db->Query(query, controls).ok());
    *builds_seen = 0;
    *memo_hit = 0;
    for (const TraceSpan& span : trace.Spans()) {
      if (span.name == "event_index_build") ++*builds_seen;
      if (span.name != "step2_video_order") continue;
      for (const auto& [name, value] : span.counters) {
        if (name == "order_memo_hit") *memo_hit = value;
      }
    }
  };

  // The adopted frozen index serves the snapshot's model version.
  run_queries();
  EXPECT_EQ(builds(), 0u);
  size_t builds_seen = 0;
  uint64_t memo_hit = 0;
  traced_query("goal ; corner_kick", &builds_seen, &memo_hit);
  EXPECT_EQ(builds_seen, 0u);
  EXPECT_EQ(memo_hit, 1u);  // "goal" was ordered by run_queries

  for (uint64_t round = 1; round <= 2; ++round) {
    SCOPED_TRACE("training round " + std::to_string(round));
    auto results = db->Query("free_kick ; goal");
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_FALSE(results->empty());
    ASSERT_TRUE(db->MarkPositive(results->front()).ok());
    auto trained = db->Train();
    ASSERT_TRUE(trained.ok()) << trained.status();
    ASSERT_TRUE(*trained);
    // Training does not build; the first query after it does, once.
    EXPECT_EQ(builds(), round - 1);
    traced_query("goal", &builds_seen, &memo_hit);
    EXPECT_EQ(builds_seen, 1u);
    EXPECT_EQ(memo_hit, 0u);  // a rebuilt index starts with an empty memo
    run_queries();
    traced_query("goal", &builds_seen, &memo_hit);
    EXPECT_EQ(builds_seen, 0u);
    EXPECT_EQ(memo_hit, 1u);
    EXPECT_EQ(builds(), round);
  }
}

TEST_F(SnapshotTest, MappedQbeMatchesHeap) {
  auto heap = VideoDatabase::Create(VideoCatalog(catalog_));
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_TRUE(heap->WriteSnapshot(path_).ok());
  auto mapped = VideoDatabase::OpenSnapshot(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  const std::vector<double> example = catalog_.raw_features_of(0);
  auto expected = heap->QueryByExample(example);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto actual = mapped->QueryByExample(example);
  ASSERT_TRUE(actual.ok()) << actual.status();
  ASSERT_EQ(expected->size(), actual->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*expected)[i].shot, (*actual)[i].shot);
    EXPECT_EQ((*expected)[i].similarity, (*actual)[i].similarity);
  }
}

TEST_F(SnapshotTest, TrainedA2RowsAreBorrowedAndCopiedOnWritePerRow) {
  HierarchicalModel trained = model_;
  ASSERT_TRUE(OfflineLearner()
                  .ApplyVideoPatterns(trained, {{{0, 2}, 1.0}, {{3}, 2.0}})
                  .ok());
  ASSERT_TRUE(WriteSnapshot(trained, catalog_, path_).ok());
  auto before = ReadFileToString(path_);
  ASSERT_TRUE(before.ok());
  auto reader = SnapshotReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto model = (*reader)->BuildModel();
  ASSERT_TRUE(model.ok()) << model.status();

  // The trained rows come back borrowed from the mapping, the rest
  // uniform, and every double equals the heap model's.
  const std::vector<size_t> trained_rows = {0, 2, 3};
  EXPECT_EQ(DenseRows(model->a2()), trained_rows);
  EXPECT_TRUE(OwnedRows(model->a2()).empty());
  for (size_t r : trained_rows) EXPECT_TRUE(model->a2().IsBorrowed(r));
  EXPECT_TRUE(SameBits(model->a2().ToDense(), trained.a2().ToDense()));

  // A round over row 2 copies that row alone; rows 0 and 3 stay mapped.
  ASSERT_TRUE(
      OfflineLearner().ApplyVideoPatterns(*model, {{{2, 1}, 1.0}}).ok());
  ASSERT_TRUE(
      OfflineLearner().ApplyVideoPatterns(trained, {{{2, 1}, 1.0}}).ok());
  EXPECT_EQ(OwnedRows(model->a2()), (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(model->a2().IsBorrowed(0));
  EXPECT_TRUE(model->a2().IsBorrowed(3));
  EXPECT_TRUE(SameBits(model->a2().ToDense(), trained.a2().ToDense()));
  auto after = ReadFileToString(path_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(SnapshotTest, TrainingCopiesOnWriteAndLeavesTheFileUntouched) {
  auto heap = VideoDatabase::Create(VideoCatalog(catalog_));
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_TRUE(heap->WriteSnapshot(path_).ok());
  auto before = ReadFileToString(path_);
  ASSERT_TRUE(before.ok());

  auto db = VideoDatabase::OpenSnapshot(path_);
  ASSERT_TRUE(db.ok()) << db.status();
  // Before the round no A2 row is dense.
  EXPECT_TRUE(DenseRows(db->model().a2()).empty());

  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive((*results)[0]).ok());
  auto trained = db->Train();
  ASSERT_TRUE(trained.ok()) << trained.status();
  EXPECT_TRUE(*trained);

  // The round owns exactly the rows of the marked pattern's videos; the
  // mapped bytes — and any other reader of the same snapshot — are
  // untouched.
  std::vector<size_t> touched;
  for (ShotId shot : (*results)[0].shots) {
    touched.push_back(static_cast<size_t>(catalog_.shot(shot).video_id));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  EXPECT_EQ(OwnedRows(db->model().a2()), touched);
  EXPECT_EQ(DenseRows(db->model().a2()), touched);
  auto after = ReadFileToString(path_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);

  auto retrained_results = db->Query("free_kick ; goal");
  EXPECT_TRUE(retrained_results.ok()) << retrained_results.status();
}

bool SameRanking(const std::vector<RetrievedPattern>& a,
                 const std::vector<RetrievedPattern>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].shots != b[i].shots || a[i].score != b[i].score ||
        a[i].video != b[i].video || a[i].edge_weights != b[i].edge_weights ||
        a[i].crosses_videos != b[i].crosses_videos) {
      return false;
    }
  }
  return true;
}

// Feedback rounds on a snapshot-opened database while four threads keep
// querying it: each round materializes the A2 rows it rewrites under the
// exclusive state lock, the untouched rows stay uniform. Every
// ranking a reader sees must be the serial replay's ranking after some
// whole number of rounds, and after each round the database ranks
// exactly as the replay does.
class FeedbackUnderLoadTest : public SnapshotTest {};

TEST_F(FeedbackUnderLoadTest, RankingsAfterEachRoundMatchASerialReplay) {
  constexpr size_t kRounds = 3;
  constexpr size_t kMarksPerRound = 2;
  constexpr int kReaders = 4;
  VideoDatabaseOptions options;
  options.feedback.retrain_threshold = kMarksPerRound;
  // Every read is a traversal over the model training rewrites.
  options.query_cache_entries = 0;
  options.traversal.num_threads = 2;
  auto heap = VideoDatabase::Create(VideoCatalog(catalog_), options);
  ASSERT_TRUE(heap.ok()) << heap.status();
  ASSERT_TRUE(heap->WriteSnapshot(path_).ok());
  const std::vector<std::string> queries = {"free_kick ; goal", "corner_kick",
                                            "goal ; corner_kick ; foul"};

  // Serial replay: expected[r][q] ranks query q after r rounds.
  auto replay = VideoDatabase::OpenSnapshot(path_, options);
  ASSERT_TRUE(replay.ok()) << replay.status();
  auto first = replay->Query(queries[0]);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->empty());
  std::vector<std::vector<RetrievedPattern>> marks(kRounds);
  for (size_t i = 0; i < kRounds * kMarksPerRound; ++i) {
    marks[i / kMarksPerRound].push_back((*first)[i % first->size()]);
  }
  std::vector<std::vector<std::vector<RetrievedPattern>>> expected;
  for (size_t round = 0; round <= kRounds; ++round) {
    if (round > 0) {
      for (const RetrievedPattern& mark : marks[round - 1]) {
        ASSERT_TRUE(replay->MarkPositive(mark).ok());
      }
      ASSERT_EQ(replay->training_rounds(), round);
    }
    expected.emplace_back();
    for (const std::string& query : queries) {
      auto results = replay->Query(query);
      ASSERT_TRUE(results.ok()) << results.status();
      expected.back().push_back(*std::move(results));
    }
  }
  bool training_moved_a_ranking = false;
  for (size_t q = 0; q < queries.size(); ++q) {
    training_moved_a_ranking |=
        !SameRanking(expected.front()[q], expected.back()[q]);
  }
  ASSERT_TRUE(training_moved_a_ranking);

  auto db = VideoDatabase::OpenSnapshot(path_, options);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(DenseRows(db->model().a2()).empty());
  std::atomic<int> reads{0};
  std::atomic<int> unexpected{0};
  // Stops and joins the readers on every exit, a failed assertion's too.
  struct Readers {
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    void Stop() {
      done.store(true);
      for (std::thread& thread : threads) {
        if (thread.joinable()) thread.join();
      }
    }
    ~Readers() { Stop(); }
  } readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); !readers.done.load(); ++i) {
        const size_t q = i % queries.size();
        auto results = db->Query(queries[q]);
        bool known = false;
        for (size_t r = 0; results.ok() && r <= kRounds && !known; ++r) {
          known = SameRanking(expected[r][q], *results);
        }
        if (!known) unexpected.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }
  auto let_readers_run = [&] {
    const int target = reads.load() + kReaders;
    while (reads.load() < target) std::this_thread::yield();
  };
  for (size_t round = 1; round <= kRounds; ++round) {
    let_readers_run();
    for (const RetrievedPattern& mark : marks[round - 1]) {
      ASSERT_TRUE(db->MarkPositive(mark).ok());
    }
    EXPECT_EQ(db->training_rounds(), round);
    EXPECT_FALSE(OwnedRows(db->model().a2()).empty());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto results = db->Query(queries[q]);
      ASSERT_TRUE(results.ok()) << results.status();
      ExpectIdenticalResults(expected[round][q], *results);
    }
  }
  let_readers_run();
  readers.Stop();
  EXPECT_EQ(unexpected.load(), 0);
}

TEST_F(SnapshotTest, PublishRepointsCurrentAtomically) {
  const std::string dir = testing::TempPath("snapshot_pub_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  EXPECT_EQ(ResolveCurrentSnapshot(dir).status().code(),
            StatusCode::kNotFound);

  auto first = PublishSnapshot(model_, catalog_, dir, 1);
  ASSERT_TRUE(first.ok()) << first.status();
  auto resolved = ResolveCurrentSnapshot(dir);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, *first);

  auto second = PublishSnapshot(model_, catalog_, dir, 2);
  ASSERT_TRUE(second.ok()) << second.status();
  resolved = ResolveCurrentSnapshot(dir);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, *second);
  EXPECT_NE(*first, *second);
  // The superseded generation stays on disk for readers still mapping it.
  EXPECT_TRUE(std::filesystem::exists(*first));

  auto reader = SnapshotReader::Open(*resolved);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->generation(), 2u);
  std::filesystem::remove_all(dir);
}

TEST_F(SnapshotTest, OpenRecordsMetrics) {
  ASSERT_TRUE(WriteSnapshot(model_, catalog_, path_,
                            SnapshotWriteOptions{.generation = 9})
                  .ok());
  MetricsRegistry registry;
  SnapshotOptions options;
  options.metrics = &registry;
  options.verify_section_crcs = true;
  auto reader = SnapshotReader::Open(path_, options);
  ASSERT_TRUE(reader.ok()) << reader.status();

  EXPECT_EQ(registry.GetCounter("hmmm_snapshot_opens_total")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("hmmm_snapshot_open_failures_total")->value(),
            0u);
  EXPECT_EQ(registry
                .GetHistogram("hmmm_snapshot_open_ms",
                              DefaultLatencyBucketsMs())
                ->count(),
            1u);
  EXPECT_EQ(registry.GetGauge("hmmm_snapshot_generation")->value(), 9.0);
  EXPECT_EQ(registry.GetGauge("hmmm_snapshot_mapped_bytes")->value(),
            static_cast<double>((*reader)->file_size()));

  auto missing = SnapshotReader::Open(path_ + ".does-not-exist", options);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(registry.GetCounter("hmmm_snapshot_opens_total")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("hmmm_snapshot_open_failures_total")->value(),
            1u);
}

TEST_F(SnapshotTest, FallbackPrefersSnapshotAndDegradesToBlobs) {
  const std::string catalog_path = testing::TempPath("snapfb.catalog");
  const std::string model_path = testing::TempPath("snapfb.model");
  auto db = VideoDatabase::Create(VideoCatalog(catalog_));
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Save(catalog_path, model_path).ok());
  ASSERT_TRUE(db->WriteSnapshot(path_).ok());

  // Healthy snapshot: the mmap path wins (model matrices stay borrowed).
  auto from_snapshot = VideoDatabase::OpenSnapshotWithFallback(
      path_, catalog_path, model_path);
  ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status();
  EXPECT_TRUE(from_snapshot->model().b1().borrowed());

  // Missing snapshot: the blob pair still boots the database.
  auto fallback = VideoDatabase::OpenSnapshotWithFallback(
      path_ + ".missing", catalog_path, model_path);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_FALSE(fallback->model().b1().borrowed());

  auto expected = from_snapshot->Query("free_kick ; goal");
  ASSERT_TRUE(expected.ok());
  auto actual = fallback->Query("free_kick ; goal");
  ASSERT_TRUE(actual.ok());
  ExpectIdenticalResults(*expected, *actual);

  std::remove(catalog_path.c_str());
  std::remove(model_path.c_str());
}

}  // namespace
}  // namespace hmmm
