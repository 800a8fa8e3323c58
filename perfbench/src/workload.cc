#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace perfbench {

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "retrieve_100x") {
    *spec = {name, 0, 90.0};
  } else if (name == "sharded_100x") {
    *spec = {name, 2, 98.0};
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& PatternSet() {
  static const std::vector<std::string>& patterns = *new std::vector<std::string>{
      "goal",
      "corner_kick ; goal",
      "free_kick ; goal",
      "foul ; free_kick",
      "corner_kick",
      "free_kick & goal ; corner_kick ; player_change ; goal",
      "foul ; yellow_card",
      "goal_kick ; corner_kick ; goal",
      "player_change",
      "foul ; free_kick ; goal",
      "yellow_card ; red_card",
      "free_kick & goal",
      "goal ; player_change",
      "corner_kick ; foul ; free_kick ; goal",
      "foul & yellow_card ; free_kick",
      "goal_kick ; foul ; yellow_card ; player_change",
  };
  return patterns;
}

std::vector<double> ZipfWeights() {
  const size_t n = PatternSet().size();
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (double& w : weights) w /= total;
  return weights;
}

uint64_t ScheduleSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ull + 17; }

std::vector<Op> DrawSequence(uint64_t seed) {
  // Largest-remainder apportionment of the temporal queries to patterns.
  const std::vector<double> weights = ZipfWeights();
  const int total = kBlockQueries * kSequenceBlocks;
  std::vector<int> counts(weights.size());
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = weights[i] * total;
    counts[i] = static_cast<int>(std::floor(exact));
    assigned += counts[i];
    remainders.emplace_back(exact - counts[i], i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int k = 0; k < total - assigned; ++k) ++counts[remainders[k].second];

  std::vector<int> queries;
  for (size_t i = 0; i < counts.size(); ++i) {
    queries.insert(queries.end(), counts[i], static_cast<int>(i));
  }
  hmmm::Rng rng(seed);
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.NextUint64(i)]);
  }
  std::vector<Op> sequence;
  size_t next = 0;
  for (int block = 0; block < kSequenceBlocks; ++block) {
    const int qbe_slot = static_cast<int>(rng.NextUint64(kBlockOps));
    for (int slot = 0; slot < kBlockOps; ++slot) {
      Op op;
      if (slot == qbe_slot) {
        op.qbe = true;
        op.probe = block;
      } else {
        op.pattern = queries[next++];
      }
      sequence.push_back(op);
    }
  }
  return sequence;
}

std::vector<hmmm::ShotId> DrawProbes(const hmmm::VideoCatalog& catalog,
                                     uint64_t seed) {
  std::vector<hmmm::ShotId> annotated = catalog.AllAnnotatedShots();
  hmmm::Rng rng(seed ^ 0x51ED2701u);
  std::vector<hmmm::ShotId> probes;
  for (int i = 0; i < kSequenceBlocks && !annotated.empty(); ++i) {
    const size_t pick = rng.NextUint64(annotated.size());
    probes.push_back(annotated[pick]);
    annotated.erase(annotated.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return probes;
}

double Percentile(std::vector<double> values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = percentile / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

}  // namespace perfbench
