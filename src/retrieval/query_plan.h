#ifndef HMMM_RETRIEVAL_QUERY_PLAN_H_
#define HMMM_RETRIEVAL_QUERY_PLAN_H_

#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/hierarchical_model.h"
#include "query/translator.h"
#include "retrieval/eq14_kernel.h"
#include "retrieval/result.h"
#include "retrieval/scorer.h"
#include "storage/catalog.h"

namespace hmmm {

/// Fixed-size dense bitset over [0, size). Sized once; the traversal's
/// hot loops only Test/ForEachSetBit, so a plain word array beats
/// std::vector<bool> (word-at-a-time AND/OR) and avoids per-bit bounds
/// logic.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// Number of set bits.
  size_t Count() const;
  bool Any() const;

  /// this &= other / this |= other; both operands must be equally sized.
  void AndWith(const DenseBitset& other);
  void OrWith(const DenseBitset& other);
  /// Sets every bit in [0, size).
  void SetAll();
  void Reset();
  /// Re-sizes to `size` cleared bits, reusing the word buffer's capacity.
  void Resize(size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  /// Lexicographic over (size, words); lets a bitset key an ordered map.
  auto operator<=>(const DenseBitset&) const = default;

  /// Calls fn(i) for every set bit in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn((w << 6) | static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Model-tier index of the query-plan layer: inverted event bitsets
/// derived from one (model, catalog) pair. Built once per model version
/// and shared by every traversal: RetrievalEngine and VideoDatabase each
/// hold one instance through an EventIndexCache (event_index_cache.h),
/// keyed by HierarchicalModel::version(), the same counter the
/// query-result cache uses for invalidation.
///
///  - VideosWithEvent(e): bitset over VideoId with B2(v, e) > 0,
///    replacing the per-call B2 row scans of Step 2 / Fig. 3 hand-over.
///  - AnnotatedStates(v, e): bitset over video v's *local* state indices
///    whose shot is annotated with e, replacing the per-expansion
///    ShotRecord::HasEvent loops of Step 3. Built by walking the
///    catalog's EventIndex postings (event -> shots), so construction is
///    O(annotations), not O(states x events).
///  - EventSimilarity(s, e): the EXACT Eq.-14 similarity of every
///    (global state, event) pair under default scorer options,
///    precomputed with one SoA batch-kernel call per event over a
///    32-byte-aligned feature-major transpose of B1. The cube-pruned
///    traversal orders its frontier by these, so only near-winning hops
///    pay a query-time Eq.-14/15 evaluation (DESIGN.md §5.1).
///  - The Step-2 order memo: the complete video visiting order
///    (HmmmTraversal::VideoOrder) per distinct first-step containing-video
///    set. The order is a pure function of that set, A2 and Pi2, which are
///    fixed for the index's model version, so each first step pays for its
///    quadratic affinity chain once per model version. This is the only
///    state that changes after construction; it sits behind its own mutex.
class EventBitmapIndex {
 public:
  /// One memoized Step-2 visiting order.
  struct MemoizedVideoOrder {
    /// The chained containing-video prefix, then the Pi2-sorted rest.
    std::vector<VideoId> order;
    /// Picks made by the affinity chain: the containing prefix's length.
    size_t chain_length = 0;
  };

  /// Distinct first-step orders memoized per index. Beyond the cap a new
  /// first step is still ordered, just not stored. At 100x scale (5,400
  /// videos) a full memo holds about 0.7 MB.
  static constexpr size_t kMaxMemoizedVideoOrders = 32;

  /// Both references are only read during construction. The built index
  /// snapshots model.version(); FreshFor() tells a caching layer when a
  /// rebuild is due. `kernel` selects the Eq.-14 batch kernel for the
  /// sim precomputation (default: runtime CPU pick); every kernel
  /// produces identical bits, so the choice only affects build time —
  /// exposed for the scalar-vs-SIMD A/B benches.
  EventBitmapIndex(const HierarchicalModel& model, const VideoCatalog& catalog,
                   Eq14Kernel kernel = DefaultEq14Kernel());

  /// Adopts precomputed exact Eq.-14 sims instead of running the batch
  /// kernel — the snapshot fast path: SnapshotReader hands in the frozen
  /// `event_sims` section as a borrowed matrix (zero copies) plus the
  /// centroid epsilon it was computed with, and only the cheap bitsets
  /// (O(annotations)) are rebuilt here. The caller vouches that
  /// `event_sims` is events x global-states for exactly this (model,
  /// catalog) pair; the writer froze what the kernel constructor would
  /// have produced, so query results stay bit-identical.
  EventBitmapIndex(const HierarchicalModel& model, const VideoCatalog& catalog,
                   Matrix event_sims, double centroid_epsilon);

  uint64_t model_version() const { return model_version_; }
  bool FreshFor(const HierarchicalModel& model) const {
    return model_version_ == model.version();
  }

  size_t num_videos() const { return num_videos_; }
  size_t num_events() const { return num_events_; }

  /// True iff B2(video, event) > 0 — the video carries the event.
  bool VideoHasEvent(VideoId video, EventId event) const {
    return video_events_[static_cast<size_t>(event)].Test(
        static_cast<size_t>(video));
  }
  const DenseBitset& VideosWithEvent(EventId event) const {
    return video_events_[static_cast<size_t>(event)];
  }
  /// Videos with at least one local state (empty locals cannot host a
  /// candidate path).
  const DenseBitset& NonEmptyVideos() const { return nonempty_videos_; }

  /// Local states of `video` annotated with `event`.
  const DenseBitset& AnnotatedStates(VideoId video, EventId event) const {
    return shot_events_[static_cast<size_t>(video) * num_events_ +
                        static_cast<size_t>(event)];
  }

  /// Step-level containment (Step 2): some alternative of `step` has all
  /// its events present in the video per B2.
  bool VideoContainsStep(VideoId video, const PatternStep& step) const;

  /// Bitset of all videos containing `step` (OR over alternatives of AND
  /// over the alternative's event bitsets).
  DenseBitset VideosContainingStep(const PatternStep& step) const;

  /// Fills `out` (sized to the video's local state count) with the local
  /// states annotated for `step`: OR over alternatives of AND over
  /// per-event bitsets. `scratch` is caller-owned AND workspace, re-sized
  /// to match `out` in place, so a reused one costs no allocation.
  void StatesAnnotatedForStep(VideoId video, const PatternStep& step,
                              DenseBitset* out, DenseBitset* scratch) const;

  /// Precomputed Eq.-14 similarity of `global_state` to `event`. Bit-for-
  /// bit equal to what a SimilarityScorer computes at query time — the
  /// batch and row kernels share one association order — but ONLY under
  /// the options HasExactSims() accepts.
  double EventSimilarity(int global_state, EventId event) const {
    return event_sims_.at(static_cast<size_t>(event),
                          static_cast<size_t>(global_state));
  }

  /// True when the precomputed sims are valid for `options`: the default
  /// centroid epsilon and no feature subset. Kernel choice is irrelevant
  /// (all kernels produce identical bits). When this is false, QueryPlan
  /// falls back to +infinity priorities, which degrades the cube-pruned
  /// search to evaluating every cell — same results, no saving.
  bool HasExactSims(const ScorerOptions& options) const {
    return options.feature_subset.empty() &&
           options.centroid_epsilon == centroid_epsilon_;
  }

  /// The precomputed sims table and the epsilon it was built with —
  /// what SnapshotWriter freezes so no index rebuild is needed at open.
  const Matrix& event_sims() const { return event_sims_; }
  double sims_centroid_epsilon() const { return centroid_epsilon_; }

  /// The memoized order for first steps whose containing videos are
  /// exactly `containing` (a VideosContainingStep result), or null.
  std::shared_ptr<const MemoizedVideoOrder> FindVideoOrder(
      const DenseBitset& containing) const;
  /// Memoizes a completed order for `containing`. Keeps the first order
  /// stored for a set, and stores nothing once the memo is full.
  void StoreVideoOrder(const DenseBitset& containing,
                       MemoizedVideoOrder order) const;

 private:
  /// Shared bitset construction of both constructors: B2 containment
  /// bitsets, non-empty videos, per-(video, event) local-state bitsets
  /// from the inverted event index.
  void BuildBitsets(const HierarchicalModel& model,
                    const VideoCatalog& catalog);
  uint64_t model_version_ = 0;
  size_t num_videos_ = 0;
  size_t num_events_ = 0;
  std::vector<DenseBitset> video_events_;  // [event] -> videos
  DenseBitset nonempty_videos_;
  std::vector<DenseBitset> shot_events_;   // [video*E + event] -> local states
  double centroid_epsilon_ = 0.0;  // epsilon event_sims_ was built with
  Matrix event_sims_;              // [event][global state] exact Eq.-14 sims

  struct OrderMemo {
    std::mutex mutex;
    std::map<DenseBitset, std::shared_ptr<const MemoizedVideoOrder>> orders;
  };
  /// Behind a pointer so the index stays movable.
  std::unique_ptr<OrderMemo> order_memo_ = std::make_unique<OrderMemo>();
};

/// Open-addressed map from a dense integer key to a value, scoped to one
/// video walk: Clear() empties it in O(1) by bumping an epoch (a slot is
/// live iff its stamp equals the current epoch) and keeps the capacity,
/// so a worker's steady state allocates nothing. Linear probing over a
/// power-of-two table that doubles past half full keeps lookups O(1)
/// however many cells a walk pops. There is no erase, which is what lets
/// a stale stamp double as "empty".
template <typename Value>
class WalkScopedMap {
 public:
  /// Buckets of a fresh map; the first growth happens past half of this.
  static constexpr size_t kInitialBuckets = 64;

  /// Empties the map, keeping its buckets.
  void Clear() {
    ++epoch_;  // 64 bits: never wraps
    size_ = 0;
  }

  /// The live value stored under `key`, or null.
  Value* Find(uint64_t key) {
    if (slots_.empty()) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Stores `value` under `key`, which must not be live.
  void Insert(uint64_t key, Value value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Home(key);
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
    slots_[i] = Slot{key, epoch_, value};
    ++size_;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t epoch = 0;
    Value value{};
  };

  size_t Home(uint64_t key) const {
    // Fibonacci hashing: keys are dense (state * steps + step), so the
    // multiply spreads neighbours before the top bits pick the bucket.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    const size_t buckets = old.empty() ? kInitialBuckets : 2 * old.size();
    slots_.assign(buckets, Slot{});
    mask_ = buckets - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(buckets));
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.epoch == epoch_) Insert(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 64;
  // Starts above the slots' zero stamps so a fresh map is empty.
  uint64_t epoch_ = 1;
  size_t size_ = 0;
};

/// Query-tier scratch of the query-plan layer: one instance per worker
/// thread per Retrieve() call. Owns the worker's SimilarityScorer and
/// three caches that make the per-video lattice walk (Steps 3-6)
/// beam-size-independent in its redundant work:
///
///  - a memo of Eq.-15 StepSimilarity values keyed by (global state,
///    pattern step), so each pair is scored at most once per video walk,
///  - per-(video, step) candidate-state lists (the Step-3 "annotated as
///    e_j" set), computed from the model-tier bitsets once and sliced per
///    beam path instead of rescanned,
///  - a parent-pointer path arena replacing O(length) Path copies per
///    expansion; survivors are materialized only at Step 6.
///
/// Construction is O(pattern): the two keyed caches are WalkScopedMaps
/// sized by what a walk touches (a handful of cells per video at 100x
/// scale), not by the number of global states or videos, and the
/// frontier's priorities are combined on demand from the index.
///
/// All caches are scoped to one video walk (BeginVideoWalk empties them):
/// each video is walked exactly once per query, and the per-walk scope
/// keeps every RetrievalStats counter — including sim_evaluations and
/// sim_memo_hits / candidate_list_reuse — byte-identical at any thread
/// count, because a walk never observes another walk's cache.
class QueryPlan {
 public:
  /// One arena node: the path edge into `state` with Eq.-13 weight
  /// `weight`, linked to the previous hop through `parent` (-1 = path
  /// head).
  struct PathNode {
    double weight = 0.0;
    int32_t parent = -1;
    int32_t state = -1;
  };

  /// All references must outlive the plan; `index` must be fresh for
  /// `model`.
  QueryPlan(const HierarchicalModel& model, const EventBitmapIndex& index,
            const TemporalPattern& pattern, const ScorerOptions& scorer_options);

  const EventBitmapIndex& index() const { return index_; }
  const TemporalPattern& pattern() const { return pattern_; }
  SimilarityScorer& scorer() { return scorer_; }
  const SimilarityScorer& scorer() const { return scorer_; }

  /// Starts a new per-video walk: empties the memo and candidate caches
  /// (O(1), capacity kept) and resets the path arena.
  void BeginVideoWalk();

  /// Memoized Eq.-15 similarity of `state` to pattern step `step_index`.
  /// First call per walk evaluates through the scorer; repeats are served
  /// from the memo and counted in memo_hits().
  double StepSimilarity(int state, size_t step_index);

  /// The priority oracle of the cube-pruned frontier: when
  /// exact_priorities() is true this returns EXACTLY the value
  /// StepSimilarity would, combined on demand from the index's
  /// precomputed per-event sims with the scorer's sum-in-order / divide /
  /// max-by arithmetic, without touching the scorer or its evaluation
  /// counter. Otherwise it returns +infinity — an admissible bound that
  /// makes every frontier cell pop, reproducing the unpruned search.
  double StepPriority(int state, size_t step_index) const;

  /// True when the index's precomputed sims match this plan's scorer
  /// options, i.e. StepPriority is exact rather than +infinity.
  bool exact_priorities() const { return exact_priorities_; }

  /// Sorted local states of `video` annotated for step `step_index`
  /// (Step 3's candidate set before range slicing). Computed once per
  /// walk per (video, step); repeats are counted in candidate_reuse().
  /// The reference stays valid until the next BeginVideoWalk.
  const std::vector<int>& AnnotatedStates(VideoId video, size_t step_index);

  /// Videos containing pattern step `step_index` (the index's
  /// VideosContainingStep), computed on first use and kept for the plan's
  /// lifetime: it depends on the step alone, not on the walk.
  const DenseBitset& StepVideos(size_t step_index);

  // -- Path arena -------------------------------------------------------
  /// Appends a node and returns its arena id.
  int AddPathNode(int parent, int state, double weight) {
    arena_.push_back(PathNode{weight, parent, state});
    return static_cast<int>(arena_.size()) - 1;
  }
  const PathNode& node(int id) const {
    return arena_[static_cast<size_t>(id)];
  }
  /// Writes the path ending at `id` into `states`/`weights` in temporal
  /// (head-first) order.
  void MaterializePath(int id, std::vector<ShotId>* shots,
                       std::vector<double>* weights) const;

  /// Served-from-memo StepSimilarity calls since construction.
  size_t memo_hits() const { return memo_hits_; }
  /// AnnotatedStates calls served from the per-walk cache.
  size_t candidate_reuse() const { return candidate_reuse_; }

 private:
  uint64_t Key(size_t major, size_t step_index) const {
    return static_cast<uint64_t>(major) * num_steps_ + step_index;
  }

  const HierarchicalModel& model_;
  const EventBitmapIndex& index_;
  const TemporalPattern& pattern_;
  SimilarityScorer scorer_;

  size_t num_steps_ = 0;
  bool exact_priorities_ = false;

  // (global state, step) -> Eq.-15 similarity.
  WalkScopedMap<double> memo_;
  size_t memo_hits_ = 0;

  // (video, step) -> index into candidate_lists_. The lists live in a
  // deque so a returned reference survives later insertions; the first
  // candidate_lists_used_ are this walk's, the rest keep their capacity
  // for later walks.
  WalkScopedMap<uint32_t> candidates_;
  std::deque<std::vector<int>> candidate_lists_;
  size_t candidate_lists_used_ = 0;
  size_t candidate_reuse_ = 0;
  // Reused result and AND scratch of the candidate builds.
  DenseBitset step_states_;
  DenseBitset step_scratch_;

  // [step] -> StepVideos(step), built on first use.
  std::vector<std::optional<DenseBitset>> step_videos_;

  std::vector<PathNode> arena_;
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_QUERY_PLAN_H_
