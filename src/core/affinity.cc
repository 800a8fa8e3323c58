#include "core/affinity.h"

#include <algorithm>

#include "common/strings.h"

namespace hmmm {

StatusOr<Matrix> InitialShotAffinity(const std::vector<int>& event_counts) {
  const size_t n = event_counts.size();
  if (n == 0) return Matrix();
  for (int ne : event_counts) {
    if (ne < 1) {
      return Status::InvalidArgument(
          "annotated shots must have at least one event (NE >= 1)");
    }
  }
  // Suffix sums: suffix[i] = sum_{k>=i} NE(s_k).
  std::vector<double> suffix(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] + static_cast<double>(event_counts[i]);
  }

  Matrix a1(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (i == n - 1) {
      // Last annotated shot: absorbing (paper: A1(N,N) = 1).
      a1.at(i, i) = 1.0;
      continue;
    }
    const double denom = suffix[i] - 1.0;
    // denom >= 1 because at least two shots remain, each with NE >= 1.
    a1.at(i, i) = (static_cast<double>(event_counts[i]) - 1.0) / denom;
    for (size_t j = i + 1; j < n; ++j) {
      a1.at(i, j) = static_cast<double>(event_counts[j]) / denom;
    }
  }
  return a1;
}

Status ValidateAccessPatterns(size_t num_states,
                              const std::vector<AccessPattern>& patterns) {
  for (const AccessPattern& pattern : patterns) {
    if (pattern.access_count < 0.0) {
      return Status::InvalidArgument("negative access count");
    }
    for (int state : pattern.states) {
      if (state < 0 || static_cast<size_t>(state) >= num_states) {
        return Status::OutOfRange(
            StrFormat("state %d out of %zu", state, num_states));
      }
    }
  }
  return Status::OK();
}

StatusOr<Matrix> AccumulateShotAffinity(
    const Matrix& prior, const std::vector<AccessPattern>& patterns) {
  if (prior.rows() != prior.cols()) {
    return Status::InvalidArgument("prior affinity must be square");
  }
  const size_t n = prior.rows();
  HMMM_RETURN_IF_ERROR(ValidateAccessPatterns(n, patterns));

  // co_access(m, n) = sum_k use(m,k) * use(n,k) * access(k), m <= n.
  Matrix co_access(n, n, 0.0);
  for (const AccessPattern& pattern : patterns) {
    // De-duplicate states within the pattern: `use` is an indicator.
    std::vector<int> states = pattern.states;
    std::sort(states.begin(), states.end());
    states.erase(std::unique(states.begin(), states.end()), states.end());
    for (size_t x = 0; x < states.size(); ++x) {
      for (size_t y = x; y < states.size(); ++y) {
        // states are temporally indexed, so sorted order == T_m <= T_n.
        co_access.at(static_cast<size_t>(states[x]),
                     static_cast<size_t>(states[y])) += pattern.access_count;
      }
    }
  }
  Matrix af1(n, n, 0.0);
  for (size_t m = 0; m < n; ++m) {
    for (size_t j = 0; j < n; ++j) {
      af1.at(m, j) = prior.at(m, j) * co_access.at(m, j);
    }
  }
  return af1;
}

Matrix NormalizeAffinity(const Matrix& accumulated, const Matrix& prior) {
  Matrix out = accumulated;
  for (size_t r = 0; r < out.rows(); ++r) {
    const double sum = out.RowSum(r);
    if (sum <= 0.0) {
      // Never-accessed state: keep the prior transition row.
      for (size_t c = 0; c < out.cols(); ++c) out.at(r, c) = prior.at(r, c);
    } else {
      for (size_t c = 0; c < out.cols(); ++c) out.at(r, c) /= sum;
    }
  }
  return out;
}

std::vector<double> DistributionFromPatterns(
    size_t num_states, const std::vector<AccessPattern>& patterns,
    PiSemantics semantics, const std::vector<double>& fallback) {
  std::vector<double> counts(num_states, 0.0);
  double total = 0.0;
  for (const AccessPattern& pattern : patterns) {
    if (pattern.states.empty()) continue;
    if (semantics == PiSemantics::kInitialStateCounts) {
      const int first = pattern.states.front();
      if (first >= 0 && static_cast<size_t>(first) < num_states) {
        counts[static_cast<size_t>(first)] += pattern.access_count;
        total += pattern.access_count;
      }
    } else {
      for (int state : pattern.states) {
        if (state >= 0 && static_cast<size_t>(state) < num_states) {
          counts[static_cast<size_t>(state)] += pattern.access_count;
          total += pattern.access_count;
        }
      }
    }
  }
  if (total <= 0.0) return fallback;
  for (double& c : counts) c /= total;
  return counts;
}

}  // namespace hmmm
