#include "checker.h"

#include <bit>
#include <cstdint>
#include <sstream>

namespace perfbench {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

template <typename... Parts>
std::string Describe(const Parts&... parts) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << parts);
  return out.str();
}

}  // namespace

std::string CheckRanking(const std::vector<hmmm::RetrievedPattern>& results,
                         const hmmm::VideoCatalog& catalog, size_t steps,
                         size_t max_results) {
  if (results.size() > max_results) {
    return Describe("ranking holds ", results.size(), " results, more than ",
                    max_results);
  }
  for (size_t r = 0; r < results.size(); ++r) {
    const hmmm::RetrievedPattern& result = results[r];
    if (r > 0 && results[r - 1].score < result.score) {
      return Describe("result ", r, " scores ", result.score,
                      " above result ", r - 1, " (", results[r - 1].score,
                      ")");
    }
    if (result.shots.size() != steps || result.edge_weights.size() != steps) {
      return Describe("result ", r, " has ", result.shots.size(),
                      " shots and ", result.edge_weights.size(),
                      " edge weights for a ", steps, "-step pattern");
    }
    // Eq. 15: SS(R, Q_k) = sum_j w_j, summed in step order.
    double sum = 0.0;
    for (double weight : result.edge_weights) sum += weight;
    if (!SameBits(sum, result.score)) {
      return Describe("result ", r, " scores ", result.score,
                      " but its edge weights sum to ", sum);
    }
    for (size_t j = 0; j < result.shots.size(); ++j) {
      const hmmm::ShotId shot = result.shots[j];
      if (shot < 0 || static_cast<size_t>(shot) >= catalog.num_shots()) {
        return Describe("result ", r, " names unknown shot ", shot);
      }
      if (result.crosses_videos) continue;
      const hmmm::ShotRecord& record = catalog.shot(shot);
      if (record.video_id != result.video) {
        return Describe("result ", r, " shot ", shot, " lies in video ",
                        record.video_id, ", not in the result's video ",
                        result.video);
      }
      if (j > 0 &&
          !(catalog.shot(result.shots[j - 1]).begin_time < record.begin_time)) {
        return Describe("result ", r, " step ", j, " (shot ", shot,
                        ") does not begin after step ", j - 1);
      }
    }
  }
  return {};
}

std::string CheckQbe(const std::vector<hmmm::QbeResult>& results,
                     hmmm::ShotId probe, size_t max_results) {
  if (results.empty()) return "query by example returned no result";
  if (results.size() > max_results) {
    return Describe("query by example returned ", results.size(),
                    " results, more than ", max_results);
  }
  for (size_t r = 1; r < results.size(); ++r) {
    if (results[r - 1].similarity < results[r].similarity) {
      return Describe("query by example result ", r, " ranks above result ",
                      r - 1);
    }
  }
  if (results.front().shot != probe) {
    return Describe("query by example with the raw features of shot ", probe,
                    " ranked shot ", results.front().shot, " first");
  }
  return {};
}

std::string CompareRankings(const std::vector<hmmm::RetrievedPattern>& a,
                            const std::vector<hmmm::RetrievedPattern>& b) {
  if (a.size() != b.size()) {
    return Describe("rankings hold ", a.size(), " and ", b.size(),
                    " results");
  }
  for (size_t r = 0; r < a.size(); ++r) {
    const hmmm::RetrievedPattern& x = a[r];
    const hmmm::RetrievedPattern& y = b[r];
    if (x.shots != y.shots || x.video != y.video ||
        x.crosses_videos != y.crosses_videos ||
        x.edge_weights.size() != y.edge_weights.size()) {
      return Describe("result ", r, " differs in its shots or video");
    }
    if (!SameBits(x.score, y.score)) {
      return Describe("result ", r, " scores ", x.score, " and ", y.score);
    }
    for (size_t j = 0; j < x.edge_weights.size(); ++j) {
      if (!SameBits(x.edge_weights[j], y.edge_weights[j])) {
        return Describe("result ", r, " edge weight ", j, " is ",
                        x.edge_weights[j], " and ", y.edge_weights[j]);
      }
    }
  }
  return {};
}

std::string CompareQbe(const std::vector<hmmm::QbeResult>& a,
                       const std::vector<hmmm::QbeResult>& b) {
  if (a.size() != b.size()) {
    return Describe("query-by-example rankings hold ", a.size(), " and ",
                    b.size(), " results");
  }
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].shot != b[r].shot || !SameBits(a[r].similarity, b[r].similarity)) {
      return Describe("query-by-example result ", r, " differs");
    }
  }
  return {};
}

std::string CheckTrainingRounds(uint64_t reported, uint64_t marks,
                                uint64_t threshold) {
  if (reported != marks / threshold) {
    return Describe("after ", marks, " marks the server reports ", reported,
                    " training rounds, expected ", marks / threshold);
  }
  return {};
}

std::string CheckModelVersion(uint64_t before, uint64_t after, uint64_t rounds,
                              uint64_t steps_per_round) {
  if (after != before + rounds * steps_per_round) {
    return Describe("model version went from ", before, " to ", after,
                    " over ", rounds, " training rounds of ", steps_per_round,
                    " version steps");
  }
  return {};
}

}  // namespace perfbench
