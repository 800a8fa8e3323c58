#ifndef HMMM_TESTS_DENSE_FEEDBACK_ORACLE_H_
#define HMMM_TESTS_DENSE_FEEDBACK_ORACLE_H_

// The dense A2 feedback update that OfflineLearner::ApplyVideoPatterns and
// FeedbackTrainer's update magnitude used to compute, kept verbatim as the
// reference the row-sparse implementations must match bit for bit: build
// the whole V x V co-access matrix AF2, normalize every row, and measure
// the L1 change over every affinity entry of the model.

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/affinity.h"
#include "core/hierarchical_model.h"

namespace hmmm::testing {

/// Eq. 5: aff2(m,n) = sum_k use(m,k) * use(n,k) * access(k).
inline StatusOr<Matrix> DenseAccumulateVideoAffinity(
    size_t num_videos, const std::vector<AccessPattern>& patterns) {
  HMMM_RETURN_IF_ERROR(ValidateAccessPatterns(num_videos, patterns));
  Matrix af2(num_videos, num_videos, 0.0);
  for (const AccessPattern& pattern : patterns) {
    std::vector<int> states = pattern.states;
    std::sort(states.begin(), states.end());
    states.erase(std::unique(states.begin(), states.end()), states.end());
    for (int m : states) {
      for (int v : states) {
        af2.at(static_cast<size_t>(m), static_cast<size_t>(v)) +=
            pattern.access_count;
      }
    }
  }
  return af2;
}

/// A2 holding the rows of a square dense matrix, each stored as
/// VideoAffinity::SetRow stores it (exactly uniform rows as their pair).
inline VideoAffinity AffinityFromDense(const Matrix& dense) {
  VideoAffinity a2(dense.rows(), 0.0);
  for (size_t r = 0; r < dense.rows(); ++r) a2.SetRow(r, dense.RowPtr(r));
  return a2;
}

/// Eqs. 5-6 and Pi2 over the whole model, as the learner used to apply
/// them.
inline Status DenseApplyVideoPatterns(
    HierarchicalModel& model, const std::vector<AccessPattern>& patterns,
    PiSemantics pi_semantics = PiSemantics::kInitialStateCounts) {
  HMMM_ASSIGN_OR_RETURN(
      Matrix af2, DenseAccumulateVideoAffinity(model.num_videos(), patterns));
  model.mutable_a2() =
      AffinityFromDense(NormalizeAffinity(af2, model.a2().ToDense()));
  model.mutable_pi2() = DistributionFromPatterns(
      model.num_videos(), patterns, pi_semantics, model.pi2());
  model.BumpVersion();
  return Status::OK();
}

/// Flattened snapshot of every affinity matrix the learner rewrites
/// (A2 followed by each local A1), used to measure update magnitude.
inline std::vector<double> DenseFlattenAffinities(
    const HierarchicalModel& model) {
  const Matrix a2 = model.a2().ToDense();
  std::vector<double> flat(a2.ptr(), a2.ptr() + a2.size());
  for (const LocalShotModel& local : model.locals()) {
    const double* a1 = local.a1.ptr();
    flat.insert(flat.end(), a1, a1 + local.a1.size());
  }
  return flat;
}

inline double DenseL1Diff(const std::vector<double>& before,
                          const std::vector<double>& after) {
  double sum = 0.0;
  const size_t n = std::min(before.size(), after.size());
  for (size_t i = 0; i < n; ++i) sum += std::fabs(after[i] - before[i]);
  return sum;
}

}  // namespace hmmm::testing

#endif  // HMMM_TESTS_DENSE_FEEDBACK_ORACLE_H_
