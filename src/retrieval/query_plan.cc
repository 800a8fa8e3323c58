#include "retrieval/query_plan.h"

#include <algorithm>
#include <limits>

#include "common/aligned.h"
#include "common/logging.h"
#include "retrieval/eq14_kernel.h"
#include "storage/event_index.h"

namespace hmmm {

size_t DenseBitset::Count() const {
  size_t n = 0;
  for (uint64_t word : words_) {
    n += static_cast<size_t>(__builtin_popcountll(word));
  }
  return n;
}

bool DenseBitset::Any() const {
  for (uint64_t word : words_) {
    if (word != 0) return true;
  }
  return false;
}

void DenseBitset::AndWith(const DenseBitset& other) {
  HMMM_CHECK(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void DenseBitset::OrWith(const DenseBitset& other) {
  HMMM_CHECK(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

void DenseBitset::SetAll() {
  if (words_.empty()) return;
  std::fill(words_.begin(), words_.end(), ~uint64_t{0});
  // Clear the tail bits beyond size_ so Count/Any stay exact.
  const size_t tail = size_ & 63;
  if (tail != 0) words_.back() &= (uint64_t{1} << tail) - 1;
}

void DenseBitset::Reset() { std::fill(words_.begin(), words_.end(), 0); }

void EventBitmapIndex::BuildBitsets(const HierarchicalModel& model,
                                    const VideoCatalog& catalog) {
  video_events_.assign(num_events_, DenseBitset(num_videos_));
  for (size_t e = 0; e < num_events_; ++e) {
    for (size_t v = 0; v < num_videos_; ++v) {
      if (model.b2().at(v, e) > 0.0) video_events_[e].Set(v);
    }
  }

  nonempty_videos_ = DenseBitset(num_videos_);
  shot_events_.reserve(num_videos_ * num_events_);
  for (size_t v = 0; v < num_videos_; ++v) {
    const size_t n = model.local(static_cast<VideoId>(v)).num_states();
    if (n > 0) nonempty_videos_.Set(v);
    for (size_t e = 0; e < num_events_; ++e) {
      shot_events_.emplace_back(n);
    }
  }

  // The per-(video, event) state bitsets come from the inverted event
  // index: each posting (event -> shot) sets one bit at the shot's local
  // position. Shots outside the model's state set (possible when the
  // catalog grew after the model was built) are skipped.
  const EventIndex inverted(catalog);
  const size_t indexed_events =
      std::min(num_events_, inverted.num_events());
  for (size_t e = 0; e < indexed_events; ++e) {
    for (ShotId shot : inverted.Lookup(static_cast<EventId>(e))) {
      const int state = model.GlobalStateOf(shot);
      if (state < 0) continue;
      const auto video =
          static_cast<size_t>(model.VideoOfGlobalState(state));
      shot_events_[video * num_events_ + e].Set(
          static_cast<size_t>(model.LocalStateIndexOf(state)));
    }
  }
}

EventBitmapIndex::EventBitmapIndex(const HierarchicalModel& model,
                                   const VideoCatalog& catalog,
                                   Eq14Kernel kernel)
    : model_version_(model.version()),
      num_videos_(model.num_videos()),
      num_events_(model.vocabulary().size()) {
  BuildBitsets(model, catalog);

  // Exact per-(state, event) Eq.-14 similarities under the DEFAULT scorer
  // options, one batch kernel call per event over a feature-major SoA
  // transpose of B1 (32-byte-aligned base, lane-padded stride). The batch
  // kernel shares the row kernel's association order, so these are the
  // same bits a query-time scorer produces — which is what lets the
  // cube-pruned traversal use them as its frontier priorities.
  centroid_epsilon_ = ScorerOptions{}.centroid_epsilon;
  const auto num_states = static_cast<size_t>(model.num_global_states());
  const auto num_features = static_cast<size_t>(model.num_features());
  event_sims_ = Matrix(num_events_, num_states);
  if (num_states > 0 && num_events_ > 0) {
    const size_t stride = Eq14SoaStride(num_states);
    AlignedVector<double> b1_soa(num_features * stride, 0.0);
    for (size_t s = 0; s < num_states; ++s) {
      const double* row = model.b1().RowPtr(s);
      for (size_t f = 0; f < num_features; ++f) {
        b1_soa[f * stride + s] = row[f];
      }
    }
    for (size_t e = 0; e < num_events_; ++e) {
      Eq14Batch(kernel, b1_soa.data(), stride, num_states,
                model.b1_prime().RowPtr(e), model.p12().RowPtr(e),
                num_features, centroid_epsilon_, event_sims_.MutableRowPtr(e));
    }
  }
}

EventBitmapIndex::EventBitmapIndex(const HierarchicalModel& model,
                                   const VideoCatalog& catalog,
                                   Matrix event_sims, double centroid_epsilon)
    : model_version_(model.version()),
      num_videos_(model.num_videos()),
      num_events_(model.vocabulary().size()),
      centroid_epsilon_(centroid_epsilon),
      event_sims_(std::move(event_sims)) {
  HMMM_CHECK(event_sims_.rows() == num_events_);
  HMMM_CHECK(event_sims_.cols() == model.num_global_states());
  BuildBitsets(model, catalog);
}

bool EventBitmapIndex::VideoContainsStep(VideoId video,
                                         const PatternStep& step) const {
  const auto v = static_cast<size_t>(video);
  for (const auto& alternative : step.alternatives) {
    bool all_present = true;
    for (EventId e : alternative) {
      if (!video_events_[static_cast<size_t>(e)].Test(v)) {
        all_present = false;
        break;
      }
    }
    if (all_present) return true;
  }
  return false;
}

DenseBitset EventBitmapIndex::VideosContainingStep(
    const PatternStep& step) const {
  DenseBitset result(num_videos_);
  DenseBitset scratch(num_videos_);
  for (const auto& alternative : step.alternatives) {
    // AND over zero events is all-ones, matching the scalar containment
    // check which treats an empty conjunction as trivially satisfied.
    scratch.SetAll();
    for (EventId e : alternative) {
      scratch.AndWith(video_events_[static_cast<size_t>(e)]);
    }
    result.OrWith(scratch);
  }
  return result;
}

std::shared_ptr<const EventBitmapIndex::MemoizedVideoOrder>
EventBitmapIndex::FindVideoOrder(const DenseBitset& containing) const {
  std::lock_guard<std::mutex> lock(order_memo_->mutex);
  const auto it = order_memo_->orders.find(containing);
  return it == order_memo_->orders.end() ? nullptr : it->second;
}

void EventBitmapIndex::StoreVideoOrder(const DenseBitset& containing,
                                       MemoizedVideoOrder order) const {
  auto entry = std::make_shared<const MemoizedVideoOrder>(std::move(order));
  std::lock_guard<std::mutex> lock(order_memo_->mutex);
  if (order_memo_->orders.size() >= kMaxMemoizedVideoOrders) return;
  order_memo_->orders.emplace(containing, std::move(entry));
}

void EventBitmapIndex::StatesAnnotatedForStep(VideoId video,
                                              const PatternStep& step,
                                              DenseBitset* out,
                                              DenseBitset* scratch) const {
  const auto base = static_cast<size_t>(video) * num_events_;
  if (scratch->size() != out->size()) scratch->Resize(out->size());
  out->Reset();
  for (const auto& alternative : step.alternatives) {
    scratch->SetAll();
    for (EventId e : alternative) {
      scratch->AndWith(shot_events_[base + static_cast<size_t>(e)]);
    }
    out->OrWith(*scratch);
  }
}

QueryPlan::QueryPlan(const HierarchicalModel& model,
                     const EventBitmapIndex& index,
                     const TemporalPattern& pattern,
                     const ScorerOptions& scorer_options)
    : model_(model),
      index_(index),
      pattern_(pattern),
      scorer_(model, scorer_options),
      num_steps_(pattern.size()),
      exact_priorities_(index.HasExactSims(scorer_options)),
      step_videos_(num_steps_) {
  HMMM_CHECK(index_.FreshFor(model));
}

void QueryPlan::BeginVideoWalk() {
  memo_.Clear();
  candidates_.Clear();
  candidate_lists_used_ = 0;
  arena_.clear();
}

double QueryPlan::StepSimilarity(int state, size_t step_index) {
  const uint64_t key = Key(static_cast<size_t>(state), step_index);
  if (const double* memoized = memo_.Find(key)) {
    ++memo_hits_;
    return *memoized;
  }
  const double value =
      scorer_.StepSimilarity(state, pattern_.steps[step_index]);
  memo_.Insert(key, value);
  return value;
}

double QueryPlan::StepPriority(int state, size_t step_index) const {
  if (!exact_priorities_) return std::numeric_limits<double>::infinity();
  // Mirrors SimilarityScorer::StepSimilarity bit-for-bit over the index's
  // precomputed sims: events of an alternative sum in declaration order,
  // the mean divides once, and the best alternative wins by
  // (first || mean > best). Any drift here would desynchronize the
  // frontier's priorities from the true weights and break the ranking
  // guarantee, so keep the arithmetic in lockstep.
  double best = 0.0;
  bool first = true;
  for (const auto& alternative : pattern_.steps[step_index].alternatives) {
    if (alternative.empty()) continue;
    double sum = 0.0;
    for (EventId e : alternative) sum += index_.EventSimilarity(state, e);
    const double mean = sum / static_cast<double>(alternative.size());
    if (first || mean > best) {
      best = mean;
      first = false;
    }
  }
  return first ? 0.0 : best;
}

const std::vector<int>& QueryPlan::AnnotatedStates(VideoId video,
                                                   size_t step_index) {
  const uint64_t key = Key(static_cast<size_t>(video), step_index);
  if (const uint32_t* cached = candidates_.Find(key)) {
    ++candidate_reuse_;
    return candidate_lists_[*cached];
  }
  if (candidate_lists_used_ == candidate_lists_.size()) {
    candidate_lists_.emplace_back();
  }
  const auto slot = static_cast<uint32_t>(candidate_lists_used_++);
  candidates_.Insert(key, slot);
  std::vector<int>& states = candidate_lists_[slot];
  states.clear();
  step_states_.Resize(model_.local(video).num_states());
  index_.StatesAnnotatedForStep(video, pattern_.steps[step_index],
                                &step_states_, &step_scratch_);
  step_states_.ForEachSetBit(
      [&](size_t t) { states.push_back(static_cast<int>(t)); });
  return states;
}

const DenseBitset& QueryPlan::StepVideos(size_t step_index) {
  std::optional<DenseBitset>& videos = step_videos_[step_index];
  if (!videos) videos = index_.VideosContainingStep(pattern_.steps[step_index]);
  return *videos;
}

void QueryPlan::MaterializePath(int id, std::vector<ShotId>* shots,
                                std::vector<double>* weights) const {
  size_t length = 0;
  for (int at = id; at >= 0; at = arena_[static_cast<size_t>(at)].parent) {
    ++length;
  }
  shots->assign(length, -1);
  weights->assign(length, 0.0);
  size_t slot = length;
  for (int at = id; at >= 0; at = arena_[static_cast<size_t>(at)].parent) {
    const PathNode& n = arena_[static_cast<size_t>(at)];
    --slot;
    (*shots)[slot] = model_.ShotOfGlobalState(n.state);
    (*weights)[slot] = n.weight;
  }
}

}  // namespace hmmm
