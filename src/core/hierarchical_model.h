#ifndef HMMM_CORE_HIERARCHICAL_MODEL_H_
#define HMMM_CORE_HIERARCHICAL_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/mmm.h"
#include "core/video_affinity.h"
#include "media/event_types.h"
#include "storage/catalog.h"

namespace hmmm {

/// One per-video local MMM at the shot level. Its states are the video's
/// annotated shots in temporal order; `a1` and `pi1` are over those local
/// indices; `states` maps local index -> global ShotId.
struct LocalShotModel {
  VideoId video_id = -1;
  std::vector<ShotId> states;
  Matrix a1;                 // temporal relative affinity (Section 4.2.1.1)
  std::vector<double> pi1;   // initial-state probabilities (Eq. 4)

  size_t num_states() const { return states.size(); }
};

/// The two-level Hierarchical Markov Model Mediator of Definition 1,
/// instantiated at d = 2:
///   level 1: one local MMM per video over annotated shots (A1, B1, Pi1)
///   level 2: the integrated MMM over videos (A2, B2, Pi2)
///   cross-level: P12 (feature importance), B1' (event centroids), and
///   L12 (video <-> shot membership links).
///
/// All matrices are owned here; the retrieval engine and the learner
/// operate on this object. The model refers to catalog shots by ShotId and
/// is only meaningful next to the catalog it was built from.
class HierarchicalModel {
 public:
  HierarchicalModel() = default;

  /// Definition 1's `d` — the number of levels.
  static constexpr int kLevels = 2;

  // -- Level 1 (shot level) --------------------------------------------
  const std::vector<LocalShotModel>& locals() const { return locals_; }
  std::vector<LocalShotModel>& mutable_locals() { return locals_; }
  const LocalShotModel& local(VideoId video) const {
    return locals_[static_cast<size_t>(video)];
  }

  /// B1: normalized (Eq. 3) feature matrix over all annotated shots.
  /// Rows are indexed by *global state index* (see GlobalStateOf).
  const Matrix& b1() const { return b1_; }
  Matrix& mutable_b1() { return b1_; }

  /// Per-feature minima/maxima the Eq.-3 normalizer was fitted with;
  /// needed to map *new* raw feature vectors (query samples, freshly
  /// ingested shots) into B1 space.
  const std::vector<double>& feature_minima() const { return feature_minima_; }
  const std::vector<double>& feature_maxima() const { return feature_maxima_; }

  /// Applies Eq. 3 with the stored parameters to a raw feature vector,
  /// clamping to [0, 1].
  StatusOr<std::vector<double>> NormalizeFeatures(
      const std::vector<double>& raw) const;

  // -- Level 2 (video level) -------------------------------------------
  /// A2, row by row uniform or dense (see VideoAffinity).
  const VideoAffinity& a2() const { return a2_; }
  VideoAffinity& mutable_a2() { return a2_; }
  const Matrix& b2() const { return b2_; }
  Matrix& mutable_b2() { return b2_; }
  const std::vector<double>& pi2() const { return pi2_; }
  std::vector<double>& mutable_pi2() { return pi2_; }

  // -- Cross-level ------------------------------------------------------
  /// P12: events x features weight-importance matrix (Eqs. 7-10).
  const Matrix& p12() const { return p12_; }
  Matrix& mutable_p12() { return p12_; }
  /// B1': events x features per-event feature centroids (Eq. 11).
  const Matrix& b1_prime() const { return b1_prime_; }
  Matrix& mutable_b1_prime() { return b1_prime_; }

  /// L12 as an explicit videos x global-states 0/1 matrix
  /// (Section 4.2.3.3); built on demand from the membership links.
  Matrix LinkMatrix() const;

  // -- State index mapping ----------------------------------------------
  /// Dense index of `shot` among all annotated shots (the row of B1), or
  /// -1 if the shot is not an HMMM state.
  int GlobalStateOf(ShotId shot) const;
  /// Inverse of GlobalStateOf.
  ShotId ShotOfGlobalState(int state) const {
    return state_shots_[static_cast<size_t>(state)];
  }
  /// The video owning global state `state` (the local MMM it belongs to).
  VideoId VideoOfGlobalState(int state) const {
    return state_videos_[static_cast<size_t>(state)];
  }
  /// Position of global state `state` inside its video's local MMM, i.e.
  /// the `t` with local(video).states[t] == ShotOfGlobalState(state).
  /// O(1); replaces linear scans over LocalShotModel::states.
  int LocalStateIndexOf(int state) const {
    return state_local_index_[static_cast<size_t>(state)];
  }
  size_t num_global_states() const { return state_shots_.size(); }

  const EventVocabulary& vocabulary() const { return vocabulary_; }
  int num_features() const { return static_cast<int>(b1_.cols()); }
  size_t num_videos() const { return locals_.size(); }

  // -- Versioning --------------------------------------------------------
  /// Monotone counter bumped by every learning pass that rewrites the
  /// model's matrices (OfflineLearner, and therefore feedback training).
  /// Consumers keying derived data on the model — e.g. the engine's
  /// QueryCache — compare versions to detect staleness. Code mutating
  /// matrices directly through the mutable_* accessors must call
  /// BumpVersion() itself. Not serialized: a loaded model restarts at 0.
  uint64_t version() const { return version_; }
  void BumpVersion() { ++version_; }

  /// Full structural validation of the 8-tuple.
  Status Validate() const;

  /// Extracts the serving model of one shard owning the contiguous video
  /// range [video_begin, video_end): local MMMs and B1 rows are copied
  /// verbatim (states renumbered through `global_to_local_shot`, a
  /// catalog-wide vector mapping global ShotId -> slice ShotId, -1 for
  /// shots outside the shard), and the archive-global pieces — B1', P12,
  /// the Eq.-3 normalizer parameters and the vocabulary — are carried
  /// over unchanged. Because a candidate's Eq.-12-15 score depends only
  /// on its own video's local MMM, its B1 rows and those global pieces,
  /// per-video scores computed on the slice are bit-identical to the
  /// full model's. The sliced A2 rows and Pi2 are renormalized so the
  /// slice validates as a standalone model; they only steer the Step-2
  /// visiting order within the shard, never a score. Requires the full
  /// model's cross_video hand-over to be unused by the serving layer (a
  /// slice cannot continue a pattern into a video another shard owns).
  StatusOr<HierarchicalModel> SliceForServing(
      VideoId video_begin, VideoId video_end,
      const std::vector<ShotId>& global_to_local_shot) const;

  /// Checksummed binary round-trip.
  std::string Serialize() const;
  static StatusOr<HierarchicalModel> Deserialize(std::string_view data);
  Status SaveToFile(const std::string& path) const;
  static StatusOr<HierarchicalModel> LoadFromFile(const std::string& path);

 private:
  friend class ModelBuilder;
  friend class SnapshotReader;

  /// Rebuilds the ShotId <-> global-state maps from `locals_`.
  void RebuildStateIndex();

  EventVocabulary vocabulary_;
  std::vector<LocalShotModel> locals_;
  Matrix b1_;
  std::vector<double> feature_minima_;
  std::vector<double> feature_maxima_;
  VideoAffinity a2_;
  Matrix b2_;
  std::vector<double> pi2_;
  Matrix p12_;
  Matrix b1_prime_;
  std::vector<ShotId> state_shots_;       // global state -> ShotId
  std::vector<VideoId> state_videos_;     // global state -> owning video
  std::vector<int> state_local_index_;    // global state -> local index
  std::vector<int> state_of_shot_;        // ShotId -> global state (-1)
  uint64_t version_ = 0;
};

}  // namespace hmmm

#endif  // HMMM_CORE_HIERARCHICAL_MODEL_H_
