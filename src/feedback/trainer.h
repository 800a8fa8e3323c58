#ifndef HMMM_FEEDBACK_TRAINER_H_
#define HMMM_FEEDBACK_TRAINER_H_

#include "core/learner.h"
#include "feedback/access_log.h"
#include "observability/metrics_registry.h"
#include "retrieval/result.h"

namespace hmmm {

/// Options for the feedback-driven retraining loop.
struct FeedbackTrainerOptions {
  /// Retraining triggers automatically once this many feedback events are
  /// pending ("once the number of newly achieved feedbacks reaches a
  /// certain threshold, the update of the A1 matrix can be triggered").
  size_t retrain_threshold = 10;
  /// Also re-learn P12 / B1' (Eqs. 10-11) at each retraining round.
  bool relearn_feature_weights = false;
  PiSemantics pi_semantics = PiSemantics::kInitialStateCounts;
};

/// Drives the paper's feedback loop: positive marks are appended to an
/// AccessLog; once the threshold is crossed (or on demand) the offline
/// learner folds them into A1/Pi1/A2/Pi2 and clears the log.
class FeedbackTrainer {
 public:
  /// The catalog must outlive the trainer.
  explicit FeedbackTrainer(const VideoCatalog& catalog,
                           FeedbackTrainerOptions options = {});

  /// Registers feedback metrics (marks, training rounds, A1/A2 update
  /// magnitude histogram, model-version gauge) in `registry`, which must
  /// outlive the trainer. When attached, each training round additionally
  /// copies the entries it may rewrite (the A2 rows of the round's videos
  /// and those videos' local A1 matrices) to record the L1 magnitude of
  /// the affinity update; unattached trainers skip that cost entirely.
  void AttachMetrics(MetricsRegistry* registry);

  /// Marks one retrieved pattern as "Positive". Records the shot-level
  /// pattern (as global states of `model`) and the video-level co-access
  /// of the videos it touches.
  Status MarkPositive(const HierarchicalModel& model,
                      const RetrievedPattern& pattern);

  /// Runs offline retraining if the threshold is reached (or `force`).
  /// Returns true when a retraining round actually ran.
  StatusOr<bool> MaybeTrain(HierarchicalModel& model, bool force = false);

  const AccessLog& log() const { return log_; }
  size_t rounds_trained() const { return rounds_trained_; }

 private:
  const VideoCatalog& catalog_;
  FeedbackTrainerOptions options_;
  AccessLog log_;
  size_t rounds_trained_ = 0;
  // Null until AttachMetrics; pointers into the attached registry.
  Counter* marks_metric_ = nullptr;
  Counter* rounds_metric_ = nullptr;
  Histogram* update_magnitude_metric_ = nullptr;
  Gauge* model_version_metric_ = nullptr;
};

}  // namespace hmmm

#endif  // HMMM_FEEDBACK_TRAINER_H_
