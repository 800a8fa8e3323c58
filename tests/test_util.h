#ifndef HMMM_TESTS_TEST_UTIL_H_
#define HMMM_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "media/event_types.h"
#include "media/feature_level_generator.h"
#include "storage/catalog.h"

namespace hmmm::testing {

/// Feature vector helper: `base` everywhere except `hot` positions set to
/// `hot_value`.
inline std::vector<double> FeatureVector(int num_features, double base,
                                         const std::vector<int>& hot = {},
                                         double hot_value = 1.0) {
  std::vector<double> v(static_cast<size_t>(num_features), base);
  for (int h : hot) v[static_cast<size_t>(h)] = hot_value;
  return v;
}

/// A tiny deterministic hand-built catalog for core/retrieval tests:
/// 2 videos x a handful of shots with soccer annotations whose features
/// are well separated per event (feature e is "hot" for event e).
///
/// video 0 shots (annotated): free_kick | free_kick+goal | corner_kick
///   (the exact Section-4.2.1.1 example: NE = 1, 2, 1)
/// video 1 shots (annotated): goal | free_kick | goal
/// plus one un-annotated background shot per video.
inline VideoCatalog SmallSoccerCatalog() {
  EventVocabulary vocab = SoccerEvents();
  const int k = 8;  // one feature per event id
  VideoCatalog catalog(vocab, k);
  const EventId goal = 0, corner = 1, free_kick = 2;

  auto features_for = [&](const std::vector<EventId>& events) {
    std::vector<double> v(static_cast<size_t>(k), 0.1);
    for (EventId e : events) v[static_cast<size_t>(e)] = 0.9;
    return v;
  };

  const VideoId v0 = catalog.AddVideo("video_a");
  HMMM_CHECK(catalog.AddShot(v0, 0.0, 5.0, {free_kick},
                             features_for({free_kick})).ok());
  HMMM_CHECK(catalog.AddShot(v0, 5.0, 9.0, {}, features_for({})).ok());
  HMMM_CHECK(catalog.AddShot(v0, 9.0, 15.0, {free_kick, goal},
                             features_for({free_kick, goal})).ok());
  HMMM_CHECK(catalog.AddShot(v0, 15.0, 21.0, {corner},
                             features_for({corner})).ok());

  const VideoId v1 = catalog.AddVideo("video_b");
  HMMM_CHECK(catalog.AddShot(v1, 0.0, 4.0, {goal}, features_for({goal})).ok());
  HMMM_CHECK(catalog.AddShot(v1, 4.0, 7.0, {}, features_for({})).ok());
  HMMM_CHECK(catalog.AddShot(v1, 7.0, 12.0, {free_kick},
                             features_for({free_kick})).ok());
  HMMM_CHECK(catalog.AddShot(v1, 12.0, 18.0, {goal},
                             features_for({goal})).ok());

  HMMM_CHECK(catalog.Validate().ok());
  return catalog;
}

/// A mid-size generated soccer corpus for integration-style tests.
inline VideoCatalog GeneratedSoccerCatalog(uint64_t seed = 3,
                                           int num_videos = 8) {
  FeatureLevelConfig config = SoccerFeatureLevelDefaults(seed);
  config.num_videos = num_videos;
  config.min_shots_per_video = 40;
  config.max_shots_per_video = 70;
  config.event_shot_fraction = 0.25;
  FeatureLevelGenerator generator(config);
  auto catalog = VideoCatalog::FromGeneratedCorpus(generator.Generate());
  HMMM_CHECK(catalog.ok());
  return std::move(catalog).value();
}

namespace internal {

/// The private scratch directories of this test process: one per test,
/// made with mkdtemp under $TMPDIR (default /tmp) and named after the pid
/// and the test, so tests of one fixture that ctest runs in parallel
/// processes never share a file. All are removed when the process exits.
class PrivateTempDirs {
 public:
  static PrivateTempDirs& Instance() {
    static PrivateTempDirs dirs;
    return dirs;
  }

  PrivateTempDirs(const PrivateTempDirs&) = delete;
  PrivateTempDirs& operator=(const PrivateTempDirs&) = delete;

  const std::string& For(const std::string& test_name) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = dirs_.find(test_name);
    if (it != dirs_.end()) return it->second;
    const char* tmpdir = ::getenv("TMPDIR");
    std::string name = test_name.substr(0, 96);
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    std::string pattern =
        std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
        "/hmmm_test." + std::to_string(::getpid()) + "." + name + ".XXXXXX";
    HMMM_CHECK(::mkdtemp(pattern.data()) != nullptr);
    return dirs_.emplace(test_name, std::move(pattern)).first->second;
  }

  ~PrivateTempDirs() {
    // A forked child that exits normally must not delete its parent's
    // files.
    if (::getpid() != owner_) return;
    for (const auto& [test_name, dir] : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }

 private:
  PrivateTempDirs() = default;

  const pid_t owner_ = ::getpid();
  std::mutex mutex_;
  std::map<std::string, std::string> dirs_;
};

}  // namespace internal

/// Temp-file path helper: `name` inside the running test's private
/// directory (see internal::PrivateTempDirs), so the path is unique per
/// test process and test.
inline std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test_name =
      test != nullptr
          ? std::string(test->test_suite_name()) + "." + test->name()
          : "no_test";
  return internal::PrivateTempDirs::Instance().For(test_name) + "/" + name;
}

}  // namespace hmmm::testing

#endif  // HMMM_TESTS_TEST_UTIL_H_
