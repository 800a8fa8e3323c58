// The output checker's own test: answers from a small generated archive
// must pass every check, and each deliberately corrupted copy must fail
// the check that guards it. Exits 0 when every expectation holds.
//
//   perfbench_checker_test

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/video_database.h"
#include "checker.h"
#include "media/feature_level_generator.h"
#include "query/translator.h"

namespace {

int failures = 0;

void Expect(bool passes, const std::string& verdict, const char* what) {
  const bool ok = passes ? verdict.empty() : !verdict.empty();
  std::printf("%s %s%s%s\n", ok ? "ok  " : "FAIL", what, verdict.empty() ? "" : ": ",
              verdict.c_str());
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;
  hmmm::FeatureLevelConfig config = hmmm::SoccerFeatureLevelDefaults(3);
  config.num_videos = 12;
  hmmm::StatusOr<hmmm::VideoCatalog> catalog =
      hmmm::VideoCatalog::FromGeneratedCorpus(hmmm::FeatureLevelGenerator(config).Generate());
  if (!catalog.ok()) return 1;
  hmmm::StatusOr<hmmm::VideoDatabase> db = hmmm::VideoDatabase::Create(std::move(*catalog));
  if (!db.ok()) return 1;
  const hmmm::VideoCatalog& archive = db->catalog();

  const std::string text = "corner_kick ; foul ; free_kick ; goal";
  const size_t steps = hmmm::CompileQuery(text, archive.vocabulary())->size();
  hmmm::StatusOr<std::vector<hmmm::RetrievedPattern>> served = db->Query(text);
  if (!served.ok() || served->size() < 2) return 1;
  const std::vector<hmmm::RetrievedPattern> good = *served;
  Expect(true, CheckRanking(good, archive, steps, 20), "a served ranking passes");
  Expect(true, CompareRankings(good, good), "a ranking equals itself");

  std::vector<hmmm::RetrievedPattern> bad = good;
  bad[0].score = std::nextafter(bad[0].score, 1e300);
  Expect(false, CheckRanking(bad, archive, steps, 20), "a score one ulp off Eq. 15 fails");
  Expect(false, CompareRankings(good, bad), "a score one ulp off breaks byte identity");

  bad = good;
  bad[1].edge_weights[0] = std::nextafter(bad[1].edge_weights[0], -1e300);
  Expect(false, CompareRankings(good, bad), "an edge weight one ulp off breaks byte identity");

  bad = good;
  std::swap(bad[0], bad[1]);
  Expect(bad[0].score == bad[1].score, CheckRanking(bad, archive, steps, 20),
         "an ascending pair of results fails");

  bad = good;
  while (bad.size() <= 20) bad.push_back(bad.back());
  Expect(false, CheckRanking(bad, archive, steps, 20), "more than max_results fails");

  bad = good;
  std::swap(bad[0].shots[0], bad[0].shots[1]);
  Expect(false, CheckRanking(bad, archive, steps, 20), "shots out of temporal order fail");

  bad = good;
  bad[0].edge_weights.pop_back();
  Expect(false, CheckRanking(bad, archive, steps, 20), "a missing edge weight fails");

  const hmmm::ShotId probe = archive.AllAnnotatedShots().at(7);
  hmmm::QbeOptions options;
  hmmm::StatusOr<std::vector<hmmm::QbeResult>> qbe =
      db->QueryByExample(archive.raw_features_of(probe), options);
  if (!qbe.ok() || qbe->size() < 2) return 1;
  Expect(true, CheckQbe(*qbe, probe, 20), "a state's own features rank it first");
  std::vector<hmmm::QbeResult> bad_qbe = *qbe;
  std::swap(bad_qbe[0], bad_qbe[1]);
  Expect(false, CheckQbe(bad_qbe, probe, 20), "a probe ranked second fails");
  Expect(false, CompareQbe(*qbe, bad_qbe), "reordered query-by-example answers differ");

  Expect(true, CheckTrainingRounds(3, 35, 10), "35 marks, 3 rounds");
  Expect(false, CheckTrainingRounds(4, 35, 10), "35 marks, 4 rounds fails");
  Expect(true, CheckModelVersion(5, 11, 3, 2), "three rounds, six version steps");
  Expect(false, CheckModelVersion(5, 12, 3, 2), "three rounds, seven version steps fails");

  std::printf("%s\n", failures == 0 ? "checker test passed" : "checker test FAILED");
  return failures == 0 ? 0 : 1;
}
