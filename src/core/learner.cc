#include "core/learner.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace hmmm {

Matrix UniformFeatureWeights(size_t num_events, size_t num_features) {
  const double weight =
      num_features > 0 ? 1.0 / static_cast<double>(num_features) : 0.0;
  return Matrix(num_events, num_features, weight);
}

StatusOr<Matrix> ComputeEventCentroids(const HierarchicalModel& model,
                                       const VideoCatalog& catalog) {
  const size_t num_events = model.vocabulary().size();
  const size_t k = model.b1().cols();
  Matrix centroids(num_events, k, 0.0);
  std::vector<double> counts(num_events, 0.0);

  for (size_t state = 0; state < model.num_global_states(); ++state) {
    const ShotId shot = model.ShotOfGlobalState(static_cast<int>(state));
    for (EventId e : catalog.shot(shot).events) {
      counts[static_cast<size_t>(e)] += 1.0;
      for (size_t f = 0; f < k; ++f) {
        centroids.at(static_cast<size_t>(e), f) += model.b1().at(state, f);
      }
    }
  }
  for (size_t e = 0; e < num_events; ++e) {
    if (counts[e] <= 0.0) continue;
    for (size_t f = 0; f < k; ++f) centroids.at(e, f) /= counts[e];
  }
  return centroids;
}

StatusOr<Matrix> ComputeFeatureWeights(const HierarchicalModel& model,
                                       const VideoCatalog& catalog,
                                       double min_stddev) {
  const size_t num_events = model.vocabulary().size();
  const size_t k = model.b1().cols();
  if (min_stddev <= 0.0) {
    return Status::InvalidArgument("min_stddev must be positive");
  }

  // Per-event Welford accumulation over B1 rows of shots carrying it.
  struct Accum {
    std::vector<double> mean, m2;
    double count = 0.0;
  };
  std::vector<Accum> accums(num_events);
  for (Accum& a : accums) {
    a.mean.assign(k, 0.0);
    a.m2.assign(k, 0.0);
  }
  for (size_t state = 0; state < model.num_global_states(); ++state) {
    const ShotId shot = model.ShotOfGlobalState(static_cast<int>(state));
    for (EventId e : catalog.shot(shot).events) {
      Accum& a = accums[static_cast<size_t>(e)];
      a.count += 1.0;
      for (size_t f = 0; f < k; ++f) {
        const double x = model.b1().at(state, f);
        const double delta = x - a.mean[f];
        a.mean[f] += delta / a.count;
        a.m2[f] += delta * (x - a.mean[f]);
      }
    }
  }

  Matrix p12 = UniformFeatureWeights(num_events, k);
  for (size_t e = 0; e < num_events; ++e) {
    const Accum& a = accums[e];
    if (a.count < 2.0) continue;  // keep the uniform row (Eq. 7)
    // Eq. 8: P'(i,j) = 1 / Std_{i,j}; Eq. 9-10: row-normalize.
    std::vector<double> inverse_std(k, 0.0);
    double row_sum = 0.0;
    for (size_t f = 0; f < k; ++f) {
      const double stddev = std::sqrt(a.m2[f] / a.count);
      inverse_std[f] = 1.0 / std::max(stddev, min_stddev);
      row_sum += inverse_std[f];
    }
    for (size_t f = 0; f < k; ++f) {
      p12.at(e, f) = inverse_std[f] / row_sum;
    }
  }
  return p12;
}

Status OfflineLearner::ApplyShotPatterns(
    HierarchicalModel& model, const std::vector<AccessPattern>& patterns) const {
  // Every check runs before the first video's A1 is rewritten.
  HMMM_RETURN_IF_ERROR(
      ValidateAccessPatterns(model.num_global_states(), patterns));
  // Split each global pattern into per-video fragments with local indices.
  std::map<VideoId, std::vector<AccessPattern>> per_video;
  for (const AccessPattern& pattern : patterns) {
    std::map<VideoId, AccessPattern> fragments;
    for (int state : pattern.states) {
      AccessPattern& fragment = fragments[model.VideoOfGlobalState(state)];
      fragment.access_count = pattern.access_count;
      fragment.states.push_back(model.LocalStateIndexOf(state));
    }
    for (auto& [video, fragment] : fragments) {
      per_video[video].push_back(std::move(fragment));
    }
  }

  for (auto& [video, video_patterns] : per_video) {
    LocalShotModel& local =
        model.mutable_locals()[static_cast<size_t>(video)];
    HMMM_ASSIGN_OR_RETURN(Matrix af1,
                          AccumulateShotAffinity(local.a1, video_patterns));
    local.a1 = NormalizeAffinity(af1, local.a1);
    local.pi1 = DistributionFromPatterns(local.num_states(), video_patterns,
                                         options_.pi_semantics, local.pi1);
  }
  model.BumpVersion();
  return Status::OK();
}

Status OfflineLearner::ApplyVideoPatterns(
    HierarchicalModel& model, const std::vector<AccessPattern>& patterns) const {
  const size_t num_videos = model.num_videos();
  HMMM_RETURN_IF_ERROR(ValidateAccessPatterns(num_videos, patterns));

  // Eq. 5 restricted to the rows a pattern touches: every other row of
  // AF2 is all zero, so Eq. 6 keeps its prior A2 row and it is never
  // read or written. `use` is an indicator, so each pattern's states are
  // de-duplicated.
  std::vector<std::vector<int>> used(patterns.size());
  std::vector<int> touched;
  for (size_t p = 0; p < patterns.size(); ++p) {
    used[p] = patterns[p].states;
    std::sort(used[p].begin(), used[p].end());
    used[p].erase(std::unique(used[p].begin(), used[p].end()), used[p].end());
    touched.insert(touched.end(), used[p].begin(), used[p].end());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Row m of AF2 takes the patterns' counts in log order, then Eq. 6
  // divides by its column-order sum: the same additions and divide as
  // Eqs. 5-6 over the full matrix, so A2 is bit-identical to that
  // (tests/dense_feedback_oracle.h).
  std::vector<double> aff2(num_videos);
  for (int m : touched) {
    std::fill(aff2.begin(), aff2.end(), 0.0);
    for (size_t p = 0; p < patterns.size(); ++p) {
      if (!std::binary_search(used[p].begin(), used[p].end(), m)) continue;
      for (int n : used[p]) {
        aff2[static_cast<size_t>(n)] += patterns[p].access_count;
      }
    }
    double sum = 0.0;
    for (double value : aff2) sum += value;
    if (sum <= 0.0) continue;  // no positive access: keep the prior row
    double* row = model.mutable_a2().MutableRow(static_cast<size_t>(m));
    for (size_t n = 0; n < num_videos; ++n) row[n] = aff2[n] / sum;
  }
  model.mutable_pi2() = DistributionFromPatterns(
      num_videos, patterns, options_.pi_semantics, model.pi2());
  model.BumpVersion();
  return Status::OK();
}

Status OfflineLearner::RelearnFeatureWeights(HierarchicalModel& model,
                                             const VideoCatalog& catalog) const {
  HMMM_ASSIGN_OR_RETURN(Matrix p12, ComputeFeatureWeights(model, catalog));
  HMMM_ASSIGN_OR_RETURN(Matrix centroids,
                        ComputeEventCentroids(model, catalog));
  model.mutable_p12() = std::move(p12);
  model.mutable_b1_prime() = std::move(centroids);
  model.BumpVersion();
  return Status::OK();
}

}  // namespace hmmm
