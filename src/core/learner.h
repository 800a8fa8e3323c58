#ifndef HMMM_CORE_LEARNER_H_
#define HMMM_CORE_LEARNER_H_

#include <vector>

#include "core/affinity.h"
#include "core/hierarchical_model.h"
#include "storage/catalog.h"

namespace hmmm {

/// Uniform P12 of Eq. 7: every feature weighs 1/K for every event.
Matrix UniformFeatureWeights(size_t num_events, size_t num_features);

/// Per-event feature centroids B1' of Eq. 11, computed from the model's
/// normalized B1 and the catalog's annotations. Events with no annotated
/// shot get an all-zero row.
StatusOr<Matrix> ComputeEventCentroids(const HierarchicalModel& model,
                                       const VideoCatalog& catalog);

/// Learned P12 of Eqs. 8-10: P12(i,j) proportional to 1/Std_{i,j}, rows
/// normalized to sum 1. `min_stddev` guards zero deviations (a feature
/// that is constant within an event class would otherwise get infinite
/// weight). Events with fewer than 2 annotated shots keep uniform weights.
StatusOr<Matrix> ComputeFeatureWeights(const HierarchicalModel& model,
                                       const VideoCatalog& catalog,
                                       double min_stddev = 1e-4);

/// Offline learning (Section 4.2.1.1 "Update of A1", 4.2.2.1, Eq. 4):
/// batch application of accumulated positive access patterns to the model
/// matrices. Stateless — the feedback::AccessLog owns accumulation and the
/// retraining trigger.
struct OfflineLearnerOptions {
  PiSemantics pi_semantics = PiSemantics::kInitialStateCounts;
};

class OfflineLearner {
 public:
  explicit OfflineLearner(OfflineLearnerOptions options = {})
      : options_(options) {}

  /// Applies shot-level positive patterns. Pattern states are *global*
  /// state indices (rows of B1); a pattern spanning several videos is
  /// split into its per-video fragments. Updates each touched video's A1
  /// (Eqs. 1-2) and Pi1 (Eq. 4).
  Status ApplyShotPatterns(HierarchicalModel& model,
                           const std::vector<AccessPattern>& patterns) const;

  /// Applies video-level patterns (states are VideoIds), updating A2
  /// (Eqs. 5-6) and Pi2. Only the A2 rows of videos in some pattern can
  /// change, so those rows are rewritten in place and no other row is
  /// read or written. Every pattern is validated before the first write.
  Status ApplyVideoPatterns(HierarchicalModel& model,
                            const std::vector<AccessPattern>& patterns) const;

  /// Re-learns P12 (Eq. 10) and B1' (Eq. 11) from current annotations.
  Status RelearnFeatureWeights(HierarchicalModel& model,
                               const VideoCatalog& catalog) const;

 private:
  OfflineLearnerOptions options_;
};

}  // namespace hmmm

#endif  // HMMM_CORE_LEARNER_H_
