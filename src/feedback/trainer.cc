#include "feedback/trainer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"

namespace hmmm {
namespace {

/// The entries a training round may rewrite, copied before the round, in
/// the order the L1 update magnitude sums them: the A2 rows of the videos
/// in the video patterns, ascending, then the whole local A1 of each
/// video in the shot patterns, ascending. Every other entry keeps its
/// bits and would add exactly +0.0 to the sum, so leaving it out does not
/// change the value. Invalid states are skipped; the learner rejects them.
class RoundFootprint {
 public:
  RoundFootprint(const HierarchicalModel& model, const AccessLog& log) {
    for (const AccessPattern& pattern : log.video_patterns()) {
      for (int video : pattern.states) {
        if (video >= 0 && static_cast<size_t>(video) < model.num_videos()) {
          a2_rows_.push_back(static_cast<size_t>(video));
        }
      }
    }
    for (const AccessPattern& pattern : log.shot_patterns()) {
      for (int state : pattern.states) {
        if (state >= 0 &&
            static_cast<size_t>(state) < model.num_global_states()) {
          a1_videos_.push_back(model.VideoOfGlobalState(state));
        }
      }
    }
    std::sort(a2_rows_.begin(), a2_rows_.end());
    a2_rows_.erase(std::unique(a2_rows_.begin(), a2_rows_.end()),
                   a2_rows_.end());
    std::sort(a1_videos_.begin(), a1_videos_.end());
    a1_videos_.erase(std::unique(a1_videos_.begin(), a1_videos_.end()),
                     a1_videos_.end());
    ForEachSpan(model, [&](const double* first, size_t count) {
      before_.insert(before_.end(), first, first + count);
    });
  }

  /// L1 norm of the change since construction.
  double L1Diff(const HierarchicalModel& model) const {
    double sum = 0.0;
    size_t i = 0;
    ForEachSpan(model, [&](const double* first, size_t count) {
      for (size_t c = 0; c < count; ++c) {
        sum += std::fabs(first[c] - before_[i++]);
      }
    });
    return sum;
  }

 private:
  /// Calls visit(first, count) for each contiguous run of the footprint.
  template <typename Visit>
  void ForEachSpan(const HierarchicalModel& model, Visit visit) const {
    // Each A2 row is expanded into scratch, a uniform one included.
    const VideoAffinity& a2 = model.a2();
    std::vector<double> expanded(a2.cols());
    for (size_t row : a2_rows_) {
      a2.ExpandRow(row, expanded.data());
      visit(expanded.data(), expanded.size());
    }
    for (VideoId video : a1_videos_) {
      const Matrix& a1 = model.local(video).a1;
      visit(a1.ptr(), a1.size());
    }
  }

  std::vector<size_t> a2_rows_;
  std::vector<VideoId> a1_videos_;
  std::vector<double> before_;
};

}  // namespace

FeedbackTrainer::FeedbackTrainer(const VideoCatalog& catalog,
                                 FeedbackTrainerOptions options)
    : catalog_(catalog), options_(options) {}

void FeedbackTrainer::AttachMetrics(MetricsRegistry* registry) {
  HMMM_CHECK(registry != nullptr);
  marks_metric_ = registry->GetCounter("hmmm_feedback_marks_total",
                                       "patterns marked Positive");
  rounds_metric_ = registry->GetCounter("hmmm_feedback_training_rounds_total",
                                        "offline retraining rounds run");
  // Affinity deltas span decades: a single mark nudges a few entries by
  // ~1e-3 while a forced full round can move whole rows.
  update_magnitude_metric_ = registry->GetHistogram(
      "hmmm_feedback_update_magnitude",
      {0.001, 0.01, 0.1, 1.0, 10.0, 100.0},
      "L1 norm of the A1/A2 change per training round");
  model_version_metric_ = registry->GetGauge(
      "hmmm_model_version", "model version counter; bumps on feedback training");
}

Status FeedbackTrainer::MarkPositive(const HierarchicalModel& model,
                                     const RetrievedPattern& pattern) {
  if (pattern.shots.empty()) {
    return Status::InvalidArgument("empty pattern marked positive");
  }
  std::vector<int> states;
  std::vector<VideoId> videos;
  states.reserve(pattern.shots.size());
  for (ShotId shot : pattern.shots) {
    const int state = model.GlobalStateOf(shot);
    if (state < 0) {
      return Status::InvalidArgument(
          StrFormat("shot %d is not an HMMM state", shot));
    }
    states.push_back(state);
    const VideoId video = catalog_.shot(shot).video_id;
    if (std::find(videos.begin(), videos.end(), video) == videos.end()) {
      videos.push_back(video);
    }
  }
  log_.RecordShotPattern(states);
  log_.RecordVideoAccess(videos);
  if (marks_metric_ != nullptr) marks_metric_->Increment();
  return Status::OK();
}

StatusOr<bool> FeedbackTrainer::MaybeTrain(HierarchicalModel& model,
                                           bool force) {
  if (!force && log_.num_feedback_events() < options_.retrain_threshold) {
    return false;
  }
  if (log_.num_feedback_events() == 0) return false;

  // Copy the round's footprint only when someone is listening; it is
  // pure observability overhead otherwise.
  std::optional<RoundFootprint> footprint;
  if (update_magnitude_metric_ != nullptr) footprint.emplace(model, log_);

  OfflineLearner learner(OfflineLearnerOptions{options_.pi_semantics});
  HMMM_RETURN_IF_ERROR(learner.ApplyShotPatterns(model, log_.shot_patterns()));
  HMMM_RETURN_IF_ERROR(
      learner.ApplyVideoPatterns(model, log_.video_patterns()));
  if (options_.relearn_feature_weights) {
    HMMM_RETURN_IF_ERROR(learner.RelearnFeatureWeights(model, catalog_));
  }
  log_.Clear();
  ++rounds_trained_;
  if (rounds_metric_ != nullptr) rounds_metric_->Increment();
  if (update_magnitude_metric_ != nullptr) {
    update_magnitude_metric_->Observe(footprint->L1Diff(model));
  }
  if (model_version_metric_ != nullptr) {
    model_version_metric_->Set(static_cast<double>(model.version()));
  }
  return true;
}

}  // namespace hmmm
