#include "core/hierarchical_model.h"

#include <algorithm>
#include <cmath>

#include "common/serialization.h"
#include "common/strings.h"
#include "storage/model_io.h"

namespace hmmm {

namespace {
constexpr uint32_t kModelVersion = 1;

/// Reads an A2 written in WriteMatrix's layout one row at a time, so an
/// archive of uniform rows never holds the m x m doubles at once.
StatusOr<VideoAffinity> ReadVideoAffinity(BinaryReader& r) {
  HMMM_ASSIGN_OR_RETURN(uint64_t rows, r.ReadVarint());
  HMMM_ASSIGN_OR_RETURN(uint64_t cols, r.ReadVarint());
  // The same bounds ReadMatrix checks before it allocates.
  constexpr uint64_t kMaxDim = 1ull << 24;
  if (rows > kMaxDim || cols > kMaxDim ||
      rows * cols > r.remaining() / sizeof(double)) {
    return Status::DataLoss("matrix dimensions exceed remaining input");
  }
  if (rows != cols) return Status::Internal("A2 shape mismatch");
  VideoAffinity a2(rows, 0.0);
  std::vector<double> row(cols);
  for (uint64_t i = 0; i < rows; ++i) {
    for (double& value : row) {
      HMMM_ASSIGN_OR_RETURN(value, r.ReadDouble());
    }
    a2.SetRow(i, row.data());
  }
  return a2;
}
}  // namespace

StatusOr<std::vector<double>> HierarchicalModel::NormalizeFeatures(
    const std::vector<double>& raw) const {
  if (feature_minima_.empty()) {
    return Status::FailedPrecondition("model has no normalizer parameters");
  }
  if (raw.size() != feature_minima_.size()) {
    return Status::InvalidArgument("feature width mismatch");
  }
  std::vector<double> out(raw.size());
  for (size_t c = 0; c < raw.size(); ++c) {
    // std::clamp passes NaN through, and a NaN similarity breaks every
    // ranking order downstream.
    if (!std::isfinite(raw[c])) {
      return Status::InvalidArgument(
          StrFormat("feature %zu is not a finite number", c));
    }
    const double span = feature_maxima_[c] - feature_minima_[c];
    const double v = span > 0.0 ? (raw[c] - feature_minima_[c]) / span : 0.0;
    out[c] = std::clamp(v, 0.0, 1.0);
  }
  return out;
}

Matrix HierarchicalModel::LinkMatrix() const {
  Matrix l12(locals_.size(), state_shots_.size(), 0.0);
  size_t state = 0;
  for (size_t v = 0; v < locals_.size(); ++v) {
    for (size_t s = 0; s < locals_[v].states.size(); ++s) {
      l12.at(v, state++) = 1.0;
    }
  }
  return l12;
}

int HierarchicalModel::GlobalStateOf(ShotId shot) const {
  if (shot < 0 || static_cast<size_t>(shot) >= state_of_shot_.size()) {
    return -1;
  }
  return state_of_shot_[static_cast<size_t>(shot)];
}

void HierarchicalModel::RebuildStateIndex() {
  state_shots_.clear();
  state_videos_.clear();
  state_local_index_.clear();
  ShotId max_shot = -1;
  for (const LocalShotModel& local : locals_) {
    for (size_t i = 0; i < local.states.size(); ++i) {
      state_shots_.push_back(local.states[i]);
      state_videos_.push_back(local.video_id);
      state_local_index_.push_back(static_cast<int>(i));
      max_shot = std::max(max_shot, local.states[i]);
    }
  }
  state_of_shot_.assign(static_cast<size_t>(max_shot) + 1, -1);
  for (size_t i = 0; i < state_shots_.size(); ++i) {
    state_of_shot_[static_cast<size_t>(state_shots_[i])] =
        static_cast<int>(i);
  }
}

Status HierarchicalModel::Validate() const {
  const size_t num_events = vocabulary_.size();
  const size_t k = b1_.cols();

  size_t total_states = 0;
  for (size_t v = 0; v < locals_.size(); ++v) {
    const LocalShotModel& local = locals_[v];
    if (local.video_id != static_cast<VideoId>(v)) {
      return Status::Internal("local model video_id not dense");
    }
    const size_t n = local.num_states();
    total_states += n;
    Mmm level_view{local.a1, Matrix(n, k, 0.0), local.pi1};
    HMMM_RETURN_IF_ERROR(level_view.Validate());
  }
  if (b1_.rows() != total_states) {
    return Status::Internal(StrFormat("B1 has %zu rows for %zu states",
                                      b1_.rows(), total_states));
  }
  if (state_shots_.size() != total_states) {
    return Status::Internal("state index out of sync");
  }
  if (a2_.rows() != locals_.size()) {
    return Status::Internal("A2 shape mismatch");
  }
  HMMM_RETURN_IF_ERROR(a2_.Validate(1e-6));
  if (b2_.rows() != locals_.size() || b2_.cols() != num_events) {
    return Status::Internal("B2 shape mismatch");
  }
  if (pi2_.size() != locals_.size()) {
    return Status::Internal("Pi2 size mismatch");
  }
  double pi2_sum = 0.0;
  for (double p : pi2_) pi2_sum += p;
  if (!locals_.empty() && std::abs(pi2_sum - 1.0) > 1e-6) {
    return Status::Internal("Pi2 not a distribution");
  }
  if (p12_.rows() != num_events || p12_.cols() != k) {
    return Status::Internal("P12 shape mismatch");
  }
  if (b1_prime_.rows() != num_events || b1_prime_.cols() != k) {
    return Status::Internal("B1' shape mismatch");
  }
  return Status::OK();
}

StatusOr<HierarchicalModel> HierarchicalModel::SliceForServing(
    VideoId video_begin, VideoId video_end,
    const std::vector<ShotId>& global_to_local_shot) const {
  if (video_begin < 0 || video_end < video_begin ||
      static_cast<size_t>(video_end) > locals_.size()) {
    return Status::InvalidArgument(
        StrFormat("video range [%d, %d) outside [0, %zu)", video_begin,
                  video_end, locals_.size()));
  }
  const size_t n = static_cast<size_t>(video_end - video_begin);
  HierarchicalModel slice;
  slice.vocabulary_ = vocabulary_;

  // Level 1: local MMMs copied verbatim, states renumbered into the
  // slice catalog's dense ShotId space.
  size_t state_begin = 0;
  for (VideoId v = 0; v < video_begin; ++v) {
    state_begin += locals_[static_cast<size_t>(v)].num_states();
  }
  size_t num_states = 0;
  slice.locals_.reserve(n);
  for (VideoId v = video_begin; v < video_end; ++v) {
    const LocalShotModel& src = locals_[static_cast<size_t>(v)];
    LocalShotModel local;
    local.video_id = v - video_begin;
    local.states.reserve(src.states.size());
    for (ShotId shot : src.states) {
      if (shot < 0 ||
          static_cast<size_t>(shot) >= global_to_local_shot.size() ||
          global_to_local_shot[static_cast<size_t>(shot)] < 0) {
        return Status::InvalidArgument(
            StrFormat("shot %d of video %d has no slice mapping", shot, v));
      }
      local.states.push_back(global_to_local_shot[static_cast<size_t>(shot)]);
    }
    local.a1 = src.a1;
    local.pi1 = src.pi1;
    num_states += local.states.size();
    slice.locals_.push_back(std::move(local));
  }

  // B1: the shard's rows form one contiguous block because the global
  // state index enumerates locals_ in video order.
  const size_t k = b1_.cols();
  slice.b1_ = Matrix(num_states, k, 0.0);
  for (size_t r = 0; r < num_states; ++r) {
    for (size_t c = 0; c < k; ++c) {
      slice.b1_.at(r, c) = b1_.at(state_begin + r, c);
    }
  }

  // Archive-global pieces, carried over unchanged so Eq.-3/-14 terms
  // stay bit-identical.
  slice.feature_minima_ = feature_minima_;
  slice.feature_maxima_ = feature_maxima_;
  slice.p12_ = p12_;
  slice.b1_prime_ = b1_prime_;

  // Level 2 restricted to the range. A2 rows and Pi2 lose the mass that
  // pointed at videos outside the shard, so renormalize (uniform
  // fallback when everything pointed outside) — this only reorders the
  // Step-2 walk within the shard. A uniform row (value, width) restricts
  // to (value, width'), width' its columns that fall in the range, and
  // normalizes as the dense loop would: the same column-order sum, the
  // same divide.
  slice.a2_ = VideoAffinity(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const VideoAffinity::RowView row =
        a2_.row(static_cast<size_t>(video_begin) + r);
    if (row.uniform()) {
      const size_t begin = static_cast<size_t>(video_begin);
      const size_t width =
          std::min(n, row.width() > begin ? row.width() - begin : 0);
      const double sum = UniformRowSum(row.value(), width);
      slice.a2_.SetUniform(r, sum > 0.0 ? row.value() / sum : row.value(),
                           width);
      continue;
    }
    double* values = slice.a2_.MutableRow(r);
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c) {
      values[c] = row[static_cast<size_t>(video_begin) + c];
      sum += values[c];
    }
    if (sum > 0.0) {
      for (size_t c = 0; c < n; ++c) values[c] /= sum;
    }
  }
  slice.b2_ = Matrix(n, b2_.cols(), 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < b2_.cols(); ++c) {
      slice.b2_.at(r, c) = b2_.at(static_cast<size_t>(video_begin) + r, c);
    }
  }
  slice.pi2_.assign(n, 0.0);
  double pi2_sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    slice.pi2_[r] = pi2_[static_cast<size_t>(video_begin) + r];
    pi2_sum += slice.pi2_[r];
  }
  if (pi2_sum > 0.0) {
    for (double& p : slice.pi2_) p /= pi2_sum;
  } else if (n > 0) {
    for (double& p : slice.pi2_) p = 1.0 / static_cast<double>(n);
  }

  slice.RebuildStateIndex();
  HMMM_RETURN_IF_ERROR(slice.Validate());
  return slice;
}

std::string HierarchicalModel::Serialize() const {
  BinaryWriter w;
  w.WriteVarint(vocabulary_.size());
  for (const std::string& name : vocabulary_.names()) w.WriteString(name);

  w.WriteVarint(locals_.size());
  for (const LocalShotModel& local : locals_) {
    w.WriteInt32(local.video_id);
    w.WriteInt32Vector(
        std::vector<int32_t>(local.states.begin(), local.states.end()));
    w.WriteMatrix(local.a1);
    w.WriteDoubleVector(local.pi1);
  }
  w.WriteMatrix(b1_);
  w.WriteDoubleVector(feature_minima_);
  w.WriteDoubleVector(feature_maxima_);
  // A2 in WriteMatrix's layout, expanded one row at a time.
  w.WriteVarint(a2_.rows());
  w.WriteVarint(a2_.cols());
  std::vector<double> row(a2_.cols());
  for (size_t r = 0; r < a2_.rows(); ++r) {
    a2_.ExpandRow(r, row.data());
    for (double value : row) w.WriteDouble(value);
  }
  w.WriteMatrix(b2_);
  w.WriteDoubleVector(pi2_);
  w.WriteMatrix(p12_);
  w.WriteMatrix(b1_prime_);
  return WrapChecksummed(kModelMagic, kModelVersion, w.buffer());
}

StatusOr<HierarchicalModel> HierarchicalModel::Deserialize(
    std::string_view data) {
  uint32_t version = 0;
  HMMM_ASSIGN_OR_RETURN(std::string payload,
                        UnwrapChecksummed(kModelMagic, data, &version));
  if (version != kModelVersion) {
    return Status::DataLoss("unsupported model version");
  }
  BinaryReader r(payload);
  HierarchicalModel model;

  HMMM_ASSIGN_OR_RETURN(uint64_t vocab_size, r.ReadVarint());
  for (uint64_t i = 0; i < vocab_size; ++i) {
    HMMM_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    model.vocabulary_.Register(name);
  }
  HMMM_ASSIGN_OR_RETURN(uint64_t num_locals, r.ReadVarint());
  for (uint64_t i = 0; i < num_locals; ++i) {
    LocalShotModel local;
    HMMM_ASSIGN_OR_RETURN(local.video_id, r.ReadInt32());
    HMMM_ASSIGN_OR_RETURN(auto states, r.ReadInt32Vector());
    local.states.assign(states.begin(), states.end());
    HMMM_ASSIGN_OR_RETURN(local.a1, r.ReadMatrix());
    HMMM_ASSIGN_OR_RETURN(local.pi1, r.ReadDoubleVector());
    model.locals_.push_back(std::move(local));
  }
  HMMM_ASSIGN_OR_RETURN(model.b1_, r.ReadMatrix());
  HMMM_ASSIGN_OR_RETURN(model.feature_minima_, r.ReadDoubleVector());
  HMMM_ASSIGN_OR_RETURN(model.feature_maxima_, r.ReadDoubleVector());
  HMMM_ASSIGN_OR_RETURN(model.a2_, ReadVideoAffinity(r));
  HMMM_ASSIGN_OR_RETURN(model.b2_, r.ReadMatrix());
  HMMM_ASSIGN_OR_RETURN(model.pi2_, r.ReadDoubleVector());
  HMMM_ASSIGN_OR_RETURN(model.p12_, r.ReadMatrix());
  HMMM_ASSIGN_OR_RETURN(model.b1_prime_, r.ReadMatrix());
  if (!r.AtEnd()) return Status::DataLoss("trailing bytes in model blob");
  model.RebuildStateIndex();
  HMMM_RETURN_IF_ERROR(model.Validate());
  return model;
}

Status HierarchicalModel::SaveToFile(const std::string& path) const {
  return WriteFile(path, Serialize());
}

StatusOr<HierarchicalModel> HierarchicalModel::LoadFromFile(
    const std::string& path) {
  // Same load contract as LoadCatalog: kNotFound / kIOError pass through
  // (the read is already retried), truncation and corruption surface as
  // kDataLoss with file context.
  HMMM_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  StatusOr<HierarchicalModel> model = Deserialize(data);
  if (!model.ok()) {
    return AnnotateBlobError(model.status(), "model", path, data.size());
  }
  return model;
}

}  // namespace hmmm
