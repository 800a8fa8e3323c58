#ifndef HMMM_TESTS_DENSE_STEP2_ORACLE_H_
#define HMMM_TESTS_DENSE_STEP2_ORACLE_H_

// The Step-2 video ordering HmmmTraversal::VideoOrder computed over a
// dense A2, kept verbatim (minus its deadline polls) as the reference the
// uniform-row chain must match pick for pick: seed with the highest-Pi2
// containing video, then repeatedly scan every unvisited containing video
// for the highest A2 affinity with the previous pick, then append the
// other videos in stable Pi2-descending order.

#include <algorithm>
#include <vector>

#include "common/matrix.h"
#include "retrieval/query_plan.h"

namespace hmmm::testing {

struct DenseVideoOrderResult {
  std::vector<VideoId> order;
  size_t chain_length = 0;  // picks made by the affinity chain
};

inline DenseVideoOrderResult DenseVideoOrder(const Matrix& a2,
                                             const std::vector<double>& pi2,
                                             const DenseBitset& step_videos) {
  const size_t m = pi2.size();
  DenseVideoOrderResult result;
  std::vector<VideoId>& order = result.order;
  if (m == 0) return result;
  std::vector<bool> visited(m, false);
  std::vector<VideoId> containing;
  step_videos.ForEachSetBit(
      [&](size_t v) { containing.push_back(static_cast<VideoId>(v)); });
  VideoId previous = -1;
  for (size_t picked = 0; picked < containing.size(); ++picked) {
    const double* a2_row =
        previous < 0 ? nullptr : a2.RowPtr(static_cast<size_t>(previous));
    VideoId best = -1;
    double best_score = -1.0;
    for (VideoId v : containing) {
      if (visited[static_cast<size_t>(v)]) continue;
      const double score = a2_row == nullptr
                               ? pi2[static_cast<size_t>(v)]
                               : a2_row[static_cast<size_t>(v)];
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    if (best < 0) break;
    visited[static_cast<size_t>(best)] = true;
    order.push_back(best);
    previous = best;
  }
  result.chain_length = order.size();
  std::vector<VideoId> rest;
  for (size_t v = 0; v < m; ++v) {
    if (!visited[v]) rest.push_back(static_cast<VideoId>(v));
  }
  std::stable_sort(rest.begin(), rest.end(), [&](VideoId a, VideoId b) {
    return pi2[static_cast<size_t>(a)] > pi2[static_cast<size_t>(b)];
  });
  order.insert(order.end(), rest.begin(), rest.end());
  return result;
}

}  // namespace hmmm::testing

#endif  // HMMM_TESTS_DENSE_STEP2_ORACLE_H_
