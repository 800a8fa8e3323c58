#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

// Output checks applied to every answer the benchmark receives. They test
// properties the paper and the repository's contracts define, not a
// recorded copy of today's output:
//   - Eq. 15: a result's score is the sum of its edge weights;
//   - rankings are in descending score and hold at most max_results;
//   - a result's shots run forward in time within one video;
//   - query by example with a state's own raw features ranks that state
//     first;
//   - two executors of the same query agree as raw doubles.
// Each check returns an empty string on success and a description of the
// first violation otherwise.

#include <string>
#include <vector>

#include "retrieval/qbe.h"
#include "retrieval/result.h"
#include "storage/catalog.h"

namespace perfbench {

/// Eq. 15, the ranking order and bound, and the temporal order of every
/// result's shots. `steps` is the number of steps of the query pattern.
std::string CheckRanking(const std::vector<hmmm::RetrievedPattern>& results,
                         const hmmm::VideoCatalog& catalog, size_t steps,
                         size_t max_results);

/// Query by example: descending similarity, at most max_results, and the
/// probe state itself first.
std::string CheckQbe(const std::vector<hmmm::QbeResult>& results,
                     hmmm::ShotId probe, size_t max_results);

/// Byte identity of two rankings: same shots, videos and flags, and
/// scores and edge weights equal as raw doubles.
std::string CompareRankings(const std::vector<hmmm::RetrievedPattern>& a,
                            const std::vector<hmmm::RetrievedPattern>& b);
std::string CompareQbe(const std::vector<hmmm::QbeResult>& a,
                       const std::vector<hmmm::QbeResult>& b);

/// Feedback accounting: after `marks` MarkPositive calls on one model,
/// the server reports marks / threshold training rounds.
std::string CheckTrainingRounds(uint64_t reported, uint64_t marks,
                                uint64_t threshold);

/// The model version rises by exactly `steps_per_round` per training
/// round.
std::string CheckModelVersion(uint64_t before, uint64_t after, uint64_t rounds,
                              uint64_t steps_per_round);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
