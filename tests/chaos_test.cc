#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/serialization.h"
#include "common/thread_pool.h"
#include "core/learner.h"
#include "core/model_builder.h"
#include "dense_step2_oracle.h"
#include "retrieval/engine.h"
#include "retrieval/traversal.h"
#include "storage/catalog_journal.h"
#include "test_util.h"

// Chaos suite: every test arms named fault points and asserts the system
// degrades along its documented contract. The probes only exist when the
// build sets -DHMMM_FAULT_INJECTION=ON (the `chaos` ctest label is wired
// to a dedicated CI leg); in a regular build each test skips — but still
// compiles, so the chaos code cannot bit-rot unnoticed.
#ifdef HMMM_FAULT_INJECTION
#define SKIP_WITHOUT_FAULT_INJECTION() (void)0
#else
#define SKIP_WITHOUT_FAULT_INJECTION() \
  GTEST_SKIP() << "built without HMMM_FAULT_INJECTION"
#endif

namespace hmmm {
namespace {

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

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/11, /*num_videos=*/20);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  VideoCatalog catalog_;
  HierarchicalModel model_;
};

TEST_F(ChaosTest, ForcedDeadlineCutoffIsByteIdenticalAtEveryThreadCount) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  // Fix the visiting order while nothing is armed, so every run below
  // shares it.
  HmmmTraversal plain(model_, catalog_, TraversalOptions{});
  const std::vector<VideoId> order = plain.VideoOrder(pattern);
  ASSERT_GT(order.size(), 8u);

  // arg_threshold = C makes the Step-7 claim probe fire for every claim
  // index >= C: a deterministic "deadline" at video C, immune to wall
  // clocks and scheduling.
  constexpr int64_t kCutoff = 6;
  FaultPointConfig config;
  config.arg_threshold = kCutoff;
  FaultInjector::Instance().Arm("traversal.deadline_at_video", config);

  std::vector<std::vector<RetrievedPattern>> runs;
  for (int threads : {1, 2, 4, 8}) {
    TraversalOptions options;
    options.num_threads = threads;
    HmmmTraversal traversal(model_, catalog_, options);
    RetrievalStats stats;
    auto results = traversal.RetrieveWithVideoOrder(pattern, order, &stats);
    ASSERT_TRUE(results.ok()) << threads << " threads";
    EXPECT_TRUE(stats.degraded) << threads << " threads";
    EXPECT_EQ(stats.videos_skipped,
              order.size() - static_cast<size_t>(kCutoff))
        << threads << " threads";
    runs.push_back(std::move(results).value());
  }

  // The anytime result is the full retrieval over order[0, C) — computed
  // with the injector quiet — and identical at every thread count.
  FaultInjector::Instance().Reset();
  const std::vector<VideoId> prefix(order.begin(), order.begin() + kCutoff);
  auto reference = plain.RetrieveWithVideoOrder(pattern, prefix);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->empty());
  for (auto& run : runs) ExpectIdenticalResults(*reference, run);
}

TEST_F(ChaosTest, MidWalkFaultAbortsTheWalkAndPinsTheCutoff) {
  SKIP_WITHOUT_FAULT_INJECTION();
  // Multi-step pattern: the walk_fault probe is polled between pattern
  // steps, so walks at order index >= 3 abort mid-lattice.
  const auto pattern = TemporalPattern::FromEvents({2, 0, 1});
  HmmmTraversal plain(model_, catalog_, TraversalOptions{});
  const std::vector<VideoId> order = plain.VideoOrder(pattern);

  FaultPointConfig config;
  config.arg_threshold = 3;
  FaultInjector::Instance().Arm("traversal.walk_fault", config);

  TraversalOptions options;
  options.num_threads = 4;
  HmmmTraversal traversal(model_, catalog_, options);
  RetrievalStats stats;
  auto results = traversal.RetrieveWithVideoOrder(pattern, order, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped, order.size() - 3u);

  FaultInjector::Instance().Reset();
  const std::vector<VideoId> prefix(order.begin(), order.begin() + 3);
  auto reference = plain.RetrieveWithVideoOrder(pattern, prefix);
  ASSERT_TRUE(reference.ok());
  ExpectIdenticalResults(*reference, *results);
}

TEST_F(ChaosTest, OrderingFaultDegradesToEmptyOrder) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultPointConfig config;
  config.after_hits = 0;
  FaultInjector::Instance().Arm("traversal.order_pick", config);

  HmmmTraversal traversal(model_, catalog_, TraversalOptions{});
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  RetrievalStats stats;
  auto results = traversal.Retrieve(pattern, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.videos_skipped, catalog_.num_videos());
}

TEST_F(ChaosTest, OrderPickFaultCutsTheSamePrefixOnAMemoHit) {
  SKIP_WITHOUT_FAULT_INJECTION();
  // A memoized Step-2 order replays the chain's polls at the same pick
  // positions: a fault firing at the last poll (before the Pi2-sorted
  // rest) cuts the same containing prefix, with the same hit count, as
  // the chain computed from scratch.
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  const EventBitmapIndex index(model_, catalog_);
  const HmmmTraversal shared(model_, catalog_, TraversalOptions{}, nullptr,
                             &index);
  const std::vector<VideoId> full = shared.VideoOrder(pattern);  // memoized
  const size_t containing =
      index.VideosContainingStep(pattern.steps.front()).Count();
  ASSERT_GT(containing, 0u);
  ASSERT_LT(containing, full.size());

  const auto order_pick_hits = [] {
    for (const FaultPointStats& point : FaultInjector::Instance().Snapshot()) {
      if (point.point == "traversal.order_pick") return point.hits;
    }
    return uint64_t{0};
  };
  FaultPointConfig config;
  config.arg_threshold = 1;  // every poll but the one at pick 0
  FaultInjector::Instance().Arm("traversal.order_pick", config);

  const HmmmTraversal cold(model_, catalog_);  // own index: a memo miss
  const std::vector<VideoId> computed = cold.VideoOrder(pattern);
  const uint64_t miss_hits = order_pick_hits();
  const std::vector<VideoId> replayed = shared.VideoOrder(pattern);
  const uint64_t hit_hits = order_pick_hits() - miss_hits;

  const std::vector<VideoId> prefix(
      full.begin(), full.begin() + static_cast<long>(containing));
  EXPECT_EQ(computed, prefix);
  EXPECT_EQ(replayed, prefix);
  EXPECT_EQ(hit_hits, miss_hits);
}

TEST_F(ChaosTest, OrderPickFaultCutsTheDenseOraclePrefixOverUniformRows) {
  SKIP_WITHOUT_FAULT_INJECTION();
  // Step 2 polls at picks 0, 32, 64, ... and once more at the chain's
  // end. The uniform-row chain picks the same videos at the same
  // positions as the dense scan it replaced, so a poll firing at or after
  // pick t cuts the oracle's order at the first poll position >= t. An
  // archive of 70 videos puts several polls inside the chain; a trained
  // round leaves dense rows among the uniform ones.
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(5, 70);
  auto built = ModelBuilder(catalog).Build();
  ASSERT_TRUE(built.ok()) << built.status();
  HierarchicalModel model = std::move(built).value();
  ASSERT_TRUE(OfflineLearner()
                  .ApplyVideoPatterns(model, {{{3, 40, 9}, 1.0}, {{66, 3}, 2.0}})
                  .ok());
  const Matrix dense = model.a2().ToDense();
  const EventBitmapIndex index(model, catalog);
  size_t widest = 0;
  for (EventId e = 0; static_cast<size_t>(e) < catalog.vocabulary().size();
       ++e) {
    const auto pattern = TemporalPattern::FromEvents({e});
    const DenseBitset containing =
        index.VideosContainingStep(pattern.steps.front());
    widest = std::max(widest, containing.Count());
    const testing::DenseVideoOrderResult oracle =
        testing::DenseVideoOrder(dense, model.pi2(), containing);
    std::vector<size_t> polls;
    for (size_t p = 0; p < containing.Count(); p += 32) polls.push_back(p);
    polls.push_back(oracle.chain_length);
    for (int64_t threshold : {1, 20, 32, 33, 64, 65}) {
      SCOPED_TRACE("event " + std::to_string(e) + " threshold " +
                   std::to_string(threshold));
      size_t cut = oracle.order.size();
      for (size_t p : polls) {
        if (static_cast<int64_t>(p) >= threshold) {
          cut = p;
          break;
        }
      }
      FaultInjector::Instance().Reset();
      FaultPointConfig config;
      config.arg_threshold = threshold;
      FaultInjector::Instance().Arm("traversal.order_pick", config);
      const HmmmTraversal cold(model, catalog);  // own index: a memo miss
      EXPECT_EQ(cold.VideoOrder(pattern),
                std::vector<VideoId>(oracle.order.begin(),
                                     oracle.order.begin() +
                                         static_cast<long>(cut)));
    }
  }
  EXPECT_GT(widest, 64u);  // some chain crosses the polls at 32 and 64
}

TEST_F(ChaosTest, WorkerFaultSurfacesAsInternalErrorNotACrash) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultPointConfig config;
  config.probability = 1.0;
  FaultInjector::Instance().Arm("threadpool.task", config);

  TraversalOptions options;
  options.num_threads = 4;
  HmmmTraversal traversal(model_, catalog_, options);
  const auto pattern = TemporalPattern::FromEvents({2, 0});
  // The pattern is validated and the order computed before the fan-out;
  // the injected worker exception must come back as a Status.
  HmmmTraversal plain(model_, catalog_, TraversalOptions{});
  const std::vector<VideoId> order = plain.VideoOrder(pattern);
  auto results = traversal.RetrieveWithVideoOrder(pattern, order);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInternal);
  EXPECT_NE(results.status().message().find("injected fault"),
            std::string::npos)
      << results.status();

  // The pool survived: disarm and the same traversal answers normally.
  FaultInjector::Instance().Reset();
  auto healthy = traversal.RetrieveWithVideoOrder(pattern, order);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->empty());
}

TEST_F(ChaosTest, FutureTaskFaultPropagatesThroughTheFuture) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultPointConfig config;
  config.after_hits = 0;
  config.max_fires = 1;
  FaultInjector::Instance().Arm("threadpool.task", config);

  ThreadPool pool(2);
  auto poisoned = pool.SubmitWithFuture([] {});
  EXPECT_THROW(poisoned.get(), std::runtime_error);
  // One fire only: the next task runs clean on a surviving worker.
  auto healthy = pool.SubmitWithFuture([] {});
  EXPECT_NO_THROW(healthy.get());
}

TEST_F(ChaosTest, TransientReadFaultIsAbsorbedByTheRetryLoop) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const std::string path = testing::TempPath("chaos_transient_read.bin");
  ASSERT_TRUE(WriteFile(path, "payload under test").ok());

  FaultPointConfig transient;
  transient.after_hits = 0;
  transient.max_fires = 1;
  FaultInjector::Instance().Arm("storage.read", transient);
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, "payload under test");
  EXPECT_EQ(FaultInjector::Instance().fires("storage.read"), 1u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, PersistentReadFaultExhaustsTheBoundedRetry) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const std::string path = testing::TempPath("chaos_persistent_read.bin");
  ASSERT_TRUE(WriteFile(path, "unreachable").ok());

  FaultPointConfig persistent;
  persistent.after_hits = 0;
  FaultInjector::Instance().Arm("storage.read", persistent);
  auto data = ReadFileToString(path);
  EXPECT_EQ(data.status().code(), StatusCode::kIOError);
  // The retry is bounded: exactly the attempt budget, no spinning.
  EXPECT_EQ(FaultInjector::Instance().hits("storage.read"), 3u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, AppendFaultFailsCleanlyAndTheJournalStaysAppendable) {
  SKIP_WITHOUT_FAULT_INJECTION();
  const std::string path = testing::TempPath("chaos_journal.wal");
  std::remove(path.c_str());
  auto journal = CatalogJournal::Open(path, SoccerEvents(), 2);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto v0 = journal->AppendVideo("match");
  ASSERT_TRUE(v0.ok());

  // The probe sits before any byte reaches the file, so a fired append
  // is atomic-failure: nothing torn, nothing applied.
  FaultPointConfig config;
  config.after_hits = 0;
  config.max_fires = 1;
  FaultInjector::Instance().Arm("storage.append", config);
  auto failed = journal->AppendShot(*v0, 0.0, 4.0, {2}, {0.9, 0.1});
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_EQ(journal->catalog().num_shots(), 0u);

  // The transient passed: the same append now lands, and replay agrees.
  auto retried = journal->AppendShot(*v0, 0.0, 4.0, {2}, {0.9, 0.1});
  ASSERT_TRUE(retried.ok()) << retried.status();
  ASSERT_TRUE(journal->Flush().ok());
  auto reopened = CatalogJournal::Open(path, SoccerEvents(), 2);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->recovered_tail_bytes(), 0u);
  EXPECT_EQ(reopened->catalog().num_shots(), 1u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, EngineExportsFaultPointCounters) {
  SKIP_WITHOUT_FAULT_INJECTION();
  auto engine = RetrievalEngine::Create(catalog_);
  ASSERT_TRUE(engine.ok());

  FaultPointConfig config;
  config.arg_threshold = 2;
  FaultInjector::Instance().Arm("traversal.deadline_at_video", config);
  RetrievalStats stats;
  auto results = engine->Retrieve(TemporalPattern::FromEvents({2, 0}), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.degraded);

  const std::string dump = engine->DumpMetricsPrometheus();
  EXPECT_NE(dump.find("hmmm_fault_traversal_deadline_at_video_hits"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("hmmm_fault_traversal_deadline_at_video_fires"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("hmmm_queries_degraded_total 1"), std::string::npos)
      << dump;
}

}  // namespace
}  // namespace hmmm
