#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The four workloads, the fixed pattern set and the seeded request
// schedule. Everything a run sends is drawn here from --seed.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/catalog.h"

namespace perfbench {

/// Both workloads serve the 100x archive (5,400 videos) from daemons with
/// the result cache off, to one closed-loop connection; see README.md for
/// why the smaller, cache-bound workloads are not part of the benchmark.
struct WorkloadSpec {
  std::string name;
  /// 0 = one hmmm_serverd; otherwise hmmm_coordd over this many shards.
  int shards = 0;
  /// The tail percentile reported as query_tail_ms: the highest one with
  /// at least 10 samples beyond it in a 15 s window.
  double tail_percentile = 90.0;
};

inline constexpr int kVideos = 5400;
/// Server launches timed per run (setup_s is their median).
inline constexpr int kSetupLaunches = 5;
/// Query+mark cycles run after the measured window (3 training rounds on
/// one server).
inline constexpr int kEpilogueCycles = 30;
/// Patterns answered by the daemons and in process and compared as raw
/// doubles before the measured window.
inline constexpr int kIdentityPatterns = 4;

/// Looks up a workload by name; false when there is none.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// The fixed pattern set, in Zipf rank order (rank 1 first).
const std::vector<std::string>& PatternSet();
inline constexpr double kZipfExponent = 1.0;
/// MarkPositive calls per training round (FeedbackTrainerOptions default).
inline constexpr uint64_t kFeedbackThreshold = 10;
/// Model-version bumps per training round: the learner bumps the version
/// once per pass it applies (shot level, then video level; feature
/// re-weighting is off by default).
inline constexpr uint64_t kVersionStepsPerRound = 2;
inline constexpr int kMaxResults = 20;
/// A block holds kBlockQueries temporal queries and one query by example;
/// every connection runs whole blocks, so the mix is exact in every run.
inline constexpr int kBlockQueries = 9;
inline constexpr int kBlockOps = kBlockQueries + 1;
inline constexpr int kSequenceBlocks = 10;

struct Op {
  bool qbe = false;
  int pattern = 0;  // index into PatternSet() for a temporal query
  int probe = 0;    // index into the probe list for a query by example
};

/// The seeded request sequence: kSequenceBlocks blocks whose temporal
/// queries follow the Zipf counts exactly (largest remainder), shuffled
/// by the seed, with the query by example at a seeded slot of each block.
std::vector<Op> DrawSequence(uint64_t seed);

/// Zipf weight of each pattern of PatternSet(), summing to 1.
std::vector<double> ZipfWeights();

/// kSequenceBlocks annotated shots drawn by the seed; their raw features
/// are the query-by-example probes.
std::vector<hmmm::ShotId> DrawProbes(const hmmm::VideoCatalog& catalog,
                                     uint64_t seed);

/// Seed of the request schedule, kept apart from the catalog seed.
uint64_t ScheduleSeed(uint64_t seed);

// -- Sample statistics ----------------------------------------------------

/// Percentile with linear interpolation between order statistics (the
/// numpy default); 0 for an empty sample.
double Percentile(std::vector<double> values, double percentile);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
