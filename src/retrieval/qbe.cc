#include "retrieval/qbe.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "retrieval/topk.h"

namespace hmmm {

QbeMatcher::QbeMatcher(const HierarchicalModel& model, QbeOptions options)
    : model_(model),
      options_(std::move(options)),
      kernel_(DefaultEq14Kernel()) {
  if (options_.feature_subset.empty()) {
    features_.resize(static_cast<size_t>(model_.num_features()));
    for (size_t i = 0; i < features_.size(); ++i) {
      features_[i] = static_cast<int>(i);
    }
  } else {
    features_ = options_.feature_subset;
    for (int f : features_) {
      HMMM_CHECK(f >= 0 && f < model_.num_features());
    }
  }
  // Resolve the per-feature weights once: the weight event's learned P12
  // row, or uniform 1/K over the selected features.
  const bool weighted =
      options_.weight_event >= 0 &&
      static_cast<size_t>(options_.weight_event) < model_.p12().rows();
  weights_.resize(static_cast<size_t>(model_.num_features()));
  const double uniform_weight =
      features_.empty() ? 0.0 : 1.0 / static_cast<double>(features_.size());
  for (size_t f = 0; f < weights_.size(); ++f) {
    weights_[f] =
        weighted
            ? model_.p12().at(static_cast<size_t>(options_.weight_event), f)
            : uniform_weight;
  }
}

std::vector<QbeResult> QbeMatcher::RankAgainst(
    const std::vector<double>& normalized, int exclude_state) const {
  if (options_.max_results == 0) return {};  // TopKHeap needs a capacity
  const Matrix& b1 = model_.b1();
  // Eq. 14 with the query sample playing the role of the event centroid
  // B1', scored through the shared kernel family (eq14_kernel.h): the
  // vector kernel for full-width queries, the indexed scalar sequence for
  // the paper's K-feature subsets.
  const bool dense = options_.feature_subset.empty();
  // Rank by similarity descending, ties in state order; keep the best K.
  struct Scored {
    double similarity;
    int state;
  };
  const auto better = [](const Scored& a, const Scored& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.state < b.state;
  };
  const size_t capacity = options_.max_results < 0
                              ? model_.num_global_states()
                              : static_cast<size_t>(options_.max_results);
  TopKHeap<Scored, decltype(better)> best(capacity, better);
  for (size_t state = 0; state < model_.num_global_states(); ++state) {
    if (static_cast<int>(state) == exclude_state) continue;
    const double* row = b1.RowPtr(state);
    const double sim =
        dense ? Eq14Row(kernel_, row, normalized.data(), weights_.data(),
                        weights_.size(), options_.epsilon)
              : Eq14RowIndexed(row, normalized.data(), weights_.data(),
                               features_.data(), features_.size(),
                               options_.epsilon);
    best.Push(Scored{sim, static_cast<int>(state)});
  }
  std::vector<Scored>& kept = best.entries();
  std::sort(kept.begin(), kept.end(), better);
  std::vector<QbeResult> results;
  results.reserve(kept.size());
  for (const Scored& s : kept) {
    results.push_back(QbeResult{model_.ShotOfGlobalState(s.state),
                                s.similarity});
  }
  return results;
}

StatusOr<std::vector<QbeResult>> QbeMatcher::Retrieve(
    const std::vector<double>& raw_example) const {
  HMMM_ASSIGN_OR_RETURN(auto normalized,
                        model_.NormalizeFeatures(raw_example));
  return RankAgainst(normalized, /*exclude_state=*/-1);
}

StatusOr<std::vector<QbeResult>> QbeMatcher::RetrieveSimilarTo(
    ShotId shot) const {
  const int state = model_.GlobalStateOf(shot);
  if (state < 0) {
    return Status::NotFound("shot is not an HMMM state");
  }
  return RankAgainst(model_.b1().Row(static_cast<size_t>(state)), state);
}

}  // namespace hmmm
