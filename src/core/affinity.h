#ifndef HMMM_CORE_AFFINITY_H_
#define HMMM_CORE_AFFINITY_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace hmmm {

/// A positive access pattern (user feedback): the sequence of local state
/// indices that were accessed together, with its access frequency. At the
/// shot level the states must be in temporal order; at the video level the
/// order is irrelevant (A2 ignores temporal direction, Section 4.2.2.1).
struct AccessPattern {
  std::vector<int> states;
  double access_count = 1.0;
};

/// How Pi is derived from access patterns. The paper's Eq. 4 as printed
/// counts every access of a state, while the surrounding prose counts only
/// occurrences *as the initial state*; both are provided (DESIGN.md §5).
enum class PiSemantics {
  kInitialStateCounts,  // prose semantics (default)
  kLiteralEquation4,    // formula-as-printed semantics
};

/// Initializes the shot-level temporal affinity matrix A1 from annotation
/// counts (Section 4.2.1.1). `event_counts[i]` is NE(s_i) for the video's
/// annotated shots in temporal order; every entry must be >= 1.
///
///   A1(i,j) = 0                                        for j < i
///   A1(i,j) = NE(s_j)     / (sum_{k>=i} NE(s_k) - 1)   for i < j
///   A1(i,i) = (NE(s_i)-1) / (sum_{k>=i} NE(s_k) - 1)   for i < N-1
///   A1(N-1,N-1) = 1
///
/// The result is row-stochastic and upper-triangular.
StatusOr<Matrix> InitialShotAffinity(const std::vector<int>& event_counts);

/// Accumulates the temporal co-access matrix AF1 of Eq. 1:
///   aff1(m,n) = A1(m,n) * sum_k use(m,k) * use(n,k) * access(k)
/// restricted to m <= n (temporal order; states are temporally indexed).
/// `prior` is the current A1. State indices out of range are an error.
StatusOr<Matrix> AccumulateShotAffinity(
    const Matrix& prior, const std::vector<AccessPattern>& patterns);

/// Row-normalizes an accumulated affinity matrix into a new transition
/// matrix (Eq. 2; OfflineLearner::ApplyVideoPatterns applies the same
/// rule to A2 row by row for Eq. 6). Rows with zero accumulated affinity
/// keep the corresponding `prior` row, so A stays row-stochastic for
/// states that were never part of a positive pattern.
Matrix NormalizeAffinity(const Matrix& accumulated, const Matrix& prior);

/// Checks every pattern in order: a negative access count is
/// kInvalidArgument, a state outside [0, num_states) is kOutOfRange.
Status ValidateAccessPatterns(size_t num_states,
                              const std::vector<AccessPattern>& patterns);

/// Derives an initial-state distribution from access patterns (Eq. 4 under
/// either semantics, see PiSemantics). Returns `fallback` when the
/// patterns touch no state.
std::vector<double> DistributionFromPatterns(
    size_t num_states, const std::vector<AccessPattern>& patterns,
    PiSemantics semantics, const std::vector<double>& fallback);

}  // namespace hmmm

#endif  // HMMM_CORE_AFFINITY_H_
