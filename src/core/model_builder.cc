#include "core/model_builder.h"

#include "core/affinity.h"
#include "core/learner.h"

namespace hmmm {

ModelBuilder::ModelBuilder(const VideoCatalog& catalog,
                           ModelBuilderOptions options)
    : catalog_(catalog), options_(options) {}

StatusOr<HierarchicalModel> ModelBuilder::Build() const {
  HMMM_RETURN_IF_ERROR(catalog_.Validate());

  HierarchicalModel model;
  model.vocabulary_ = catalog_.vocabulary();

  // Level 1: one local MMM per video over its annotated shots.
  std::vector<ShotId> all_states;
  for (const VideoRecord& video : catalog_.videos()) {
    LocalShotModel local;
    local.video_id = video.id;
    local.states = catalog_.AnnotatedShots(video.id);

    std::vector<int> event_counts;
    event_counts.reserve(local.states.size());
    for (ShotId sid : local.states) {
      event_counts.push_back(catalog_.shot(sid).NumEvents());
    }
    HMMM_ASSIGN_OR_RETURN(local.a1, InitialShotAffinity(event_counts));
    // No training data yet: uniform initial-state preference (Eq. 4 is
    // applied by the learner once feedback exists).
    local.pi1 = UniformDistribution(local.states.size());

    all_states.insert(all_states.end(), local.states.begin(),
                      local.states.end());
    model.locals_.push_back(std::move(local));
  }
  model.RebuildStateIndex();

  // B1: Eq.-3 min-max normalization over the annotated shots' features.
  if (!all_states.empty()) {
    const Matrix raw = catalog_.RawFeatureMatrixFor(all_states);
    HMMM_ASSIGN_OR_RETURN(model.b1_, normalizer_.FitTransform(raw));
    model.feature_minima_ = normalizer_.minima();
    model.feature_maxima_ = normalizer_.maxima();
  } else {
    model.b1_ = Matrix(0, static_cast<size_t>(catalog_.num_features()));
  }

  // Level 2: the integrated MMM over videos.
  const size_t m = catalog_.num_videos();
  model.a2_ = VideoAffinity(m, m > 0 ? 1.0 / static_cast<double>(m) : 0.0);
  model.b2_ = catalog_.EventCountMatrix();
  model.pi2_ = UniformDistribution(m);

  // Cross-level: P12 (Eq. 7 or Eq. 10) and B1' (Eq. 11).
  model.p12_ = UniformFeatureWeights(model.vocabulary_.size(),
                                     static_cast<size_t>(catalog_.num_features()));
  HMMM_ASSIGN_OR_RETURN(model.b1_prime_,
                        ComputeEventCentroids(model, catalog_));
  if (options_.learn_feature_weights) {
    HMMM_ASSIGN_OR_RETURN(model.p12_, ComputeFeatureWeights(model, catalog_));
  }

  HMMM_RETURN_IF_ERROR(model.Validate());
  return model;
}

StatusOr<HierarchicalModel> RebuildPreservingLearning(
    const HierarchicalModel& old_model, const VideoCatalog& catalog,
    ModelBuilderOptions options) {
  ModelBuilder builder(catalog, options);
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model, builder.Build());

  // Carry over local learning for videos whose state list is unchanged.
  const size_t old_m = old_model.num_videos();
  for (LocalShotModel& local : model.mutable_locals()) {
    if (static_cast<size_t>(local.video_id) >= old_m) continue;
    const LocalShotModel& old_local = old_model.local(local.video_id);
    if (old_local.states != local.states) continue;
    local.a1 = old_local.a1;
    local.pi1 = old_local.pi1;
  }

  // Embed the old A2 block; rows re-normalize over the grown video set.
  const size_t m = model.num_videos();
  if (old_m > 0 && old_m <= m) {
    // A uniform old row (value, width <= old_m) embeds as itself.
    VideoAffinity& a2 = model.mutable_a2();
    for (size_t r = 0; r < old_m; ++r) {
      const VideoAffinity::RowView old_row = old_model.a2().row(r);
      if (old_row.uniform()) {
        a2.SetUniform(r, old_row.value(), old_row.width());
        continue;
      }
      double* row = a2.MutableRow(r);
      for (size_t c = 0; c < m; ++c) row[c] = c < old_m ? old_row[c] : 0.0;
    }
    a2.NormalizeRows();

    // Pi2: keep old preferences, seed each new video with 1/m mass.
    std::vector<double>& pi2 = model.mutable_pi2();
    double total = 0.0;
    for (size_t v = 0; v < m; ++v) {
      pi2[v] = v < old_m ? old_model.pi2()[v] : 1.0 / static_cast<double>(m);
      total += pi2[v];
    }
    if (total > 0.0) {
      for (double& p : pi2) p /= total;
    }
  }
  HMMM_RETURN_IF_ERROR(model.Validate());
  return model;
}

}  // namespace hmmm
