#ifndef HMMM_RETRIEVAL_TRAVERSAL_H_
#define HMMM_RETRIEVAL_TRAVERSAL_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "observability/query_trace.h"
#include "retrieval/query_plan.h"
#include "retrieval/result.h"
#include "retrieval/scorer.h"

namespace hmmm {

/// Options for the HMMM lattice traversal.
struct TraversalOptions {
  /// Number of alternative paths kept per hop. 1 reproduces the paper's
  /// greedy "always traverse the most optimal path"; larger beams trade
  /// cost for recall (ablated in bench_fig3_lattice).
  int beam_width = 1;
  /// Maximum ranked results returned (Step 8/9).
  int max_results = 20;
  /// Allow one shot to serve two consecutive steps (the paper permits
  /// T_m <= T_n; default requires strictly later shots).
  bool allow_same_shot = false;
  /// Continue a pattern into an affine next video when the current video
  /// runs out of shots (Fig. 3's video hand-over), instead of failing the
  /// candidate.
  bool cross_video = false;
  /// Consider at most this many videos (Step 7 loops all M; -1 = all).
  int max_videos = -1;
  /// Step 3 of the flowchart looks for "the specified video shot which is
  /// annotated as event e_j or similar to event e_j": when true (default),
  /// each hop restricts its candidates to shots literally annotated with
  /// the step's events whenever any exist, falling back to pure Eq.-14
  /// similarity over all shots otherwise. false = similarity only.
  bool annotated_first = true;
  /// Candidate videos are fanned out across this many worker threads;
  /// each video's shot-level lattice walk is independent given the
  /// Step-2 video order, and per-worker top-K heaps are merged with a
  /// deterministic (score, video-order) tie-break, so the ranked output
  /// is byte-identical to the serial walk at any thread count. 1 = run
  /// serially on the calling thread (the default); 0 = one worker per
  /// hardware thread.
  int num_threads = 1;
  /// When set, the traversal records one span per phase (Step-2 video
  /// ordering, query-plan build, per-video Steps 3-5 lattice walk, Eq.-15
  /// scoring, Step 7-9 merge/rank) into this trace, with wall times and
  /// RetrievalStats-style counters. Not owned; must outlive the
  /// traversal. Recording never changes what is computed, so the ranked
  /// output stays byte-identical with tracing on or off, at any thread
  /// count.
  QueryTrace* trace = nullptr;
  /// Absolute wall-clock budget on the steady clock. When the deadline
  /// fires mid-retrieval the traversal degrades gracefully instead of
  /// failing: it returns the best *anytime* ranking over the prefix of
  /// Step-2 videos whose lattice walks completed, sets stats->degraded
  /// and counts the abandoned videos in stats->videos_skipped. For a
  /// fixed set of completed videos the anytime ranking is byte-identical
  /// to a full retrieval restricted to that video prefix, at any thread
  /// count. Default: no deadline.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  /// Optional cooperative cancellation, polled at the same bounded
  /// intervals as the deadline (between Step-2 ordering picks, between
  /// per-video claims of the Step-7 fan-out, and between pattern steps
  /// of each Steps-3-5 beam walk). Not owned; must outlive every
  /// Retrieve call. Firing it degrades exactly like a deadline.
  const CancellationToken* cancellation = nullptr;
  ScorerOptions scorer;
};

/// The temporal pattern retrieval process of Section 5 (Steps 1-9),
/// generalized from greedy to beam search:
///   Step 2 walks videos ordered by B2 containment of e_1 and A2 affinity
///   to the previously visited video; Steps 3-5 walk each video's lattice
///   (Fig. 3) scoring hops with Eqs. 12-14; Step 6 computes SS (Eq. 15);
///   Steps 7-9 rank the per-video candidates.
///
/// The walk runs on the two-tier query-plan layer (query_plan.h): a
/// model-tier EventBitmapIndex answers "which videos / local shots carry
/// this event" with bitsets, and a per-worker QueryPlan memoizes Eq.-15
/// scores, caches per-(video, step) candidate lists and arena-allocates
/// beam paths.
///
/// Each step's beam selection is a cube-pruned best-first search rather
/// than a breadth-first expand-all: the (prev-path x candidate-state)
/// score grid is enumerated as unevaluated cells carrying an exact
/// priority from the index's precomputed per-(state, event) similarities,
/// a frontier heap seeded with each row's best cell pops at most
/// beam-width winners, and only winning cells pay a query-time Eq.-14/15
/// evaluation (heap_pops); the rest are skipped (grid_cells_skipped).
/// Payment is deferred to the point of consumption: an intermediate
/// winner pays when the next step reads its weight as an Eq.-13 base
/// prefix (a dead-ended path never pays), and on the final step — whose
/// weights feed nothing but Step 6's argmax, which runs on the exact
/// priorities — only the one winning cell per video pays (see
/// SelectWinners).
/// Neither the plan tiers nor the pruned search change any computed
/// value — rankings, edge weights, states_visited, beam_pruned and the
/// other structural counters are byte-identical to the naive per-path
/// walk at every beam width, thread count and kernel choice (asserted by
/// reference_traversal_test); only the evaluation-effort counters
/// (sim_evaluations, sim_memo_hits) shrink. See DESIGN.md §5.1.
class HmmmTraversal {
 public:
  /// Model and catalog must outlive the traversal. When `pool` is given
  /// it is used for the per-video fan-out (and must outlive the
  /// traversal); otherwise a pool is created iff options.num_threads
  /// resolves to more than one worker. When `index` is given it must be
  /// fresh for `model` and outlive the traversal (RetrievalEngine and
  /// VideoDatabase share one per model version, with its Step-2 order
  /// memo); otherwise the traversal builds its own.
  HmmmTraversal(const HierarchicalModel& model, const VideoCatalog& catalog,
                TraversalOptions options = {}, ThreadPool* pool = nullptr,
                const EventBitmapIndex* index = nullptr);

  /// Runs the retrieval; results are sorted by descending SS. With a
  /// deadline/cancellation armed in the options, a fired retrieval still
  /// returns OK with the anytime prefix ranking (see
  /// TraversalOptions::deadline); it never fails just for running out of
  /// time.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, RetrievalStats* stats = nullptr) const;

  /// Same, but visits exactly the given videos in the given order (used
  /// by the three-level engine to prune via the category layer).
  StatusOr<std::vector<RetrievedPattern>> RetrieveWithVideoOrder(
      const TemporalPattern& pattern, const std::vector<VideoId>& order,
      RetrievalStats* stats = nullptr) const;

  /// The Step-2 video visiting order for a pattern's first step: videos
  /// containing a first-step event (per B2) first — seeded by Pi2 and
  /// chained by A2 affinity — then the rest. Exposed for tests. Polls
  /// the options' deadline/cancellation between picks and truncates the
  /// order (a prefix of the full one, since the affinity chaining is
  /// deterministic) when either fires. A completed order is memoized on
  /// the event index, so later calls with the same containing-video set
  /// copy it (polling at the same positions) instead of re-chaining.
  std::vector<VideoId> VideoOrder(const TemporalPattern& pattern) const;

  /// The model-tier index this traversal runs on. A self-built index is
  /// (re)built lazily whenever the model's version counter has moved, so
  /// mutating the model through a learner between queries stays valid; an
  /// externally supplied index is trusted (its owner rebuilds it).
  const EventBitmapIndex& event_index() const { return CurrentIndex(); }

 private:
  /// Shared per-retrieval cancellation state: the deadline/token pair
  /// plus the atomic video-order cutoff that makes degraded results a
  /// deterministic order-prefix (defined in traversal.cc).
  struct CancelScope;

  /// How one video's lattice walk ended.
  enum class WalkOutcome {
    kNoCandidate,  // walked fully, no complete candidate in this video
    kCandidate,    // walked fully, *out holds the video's best path
    kAborted,      // deadline/cancellation fired mid-walk; nothing usable
  };

  /// One beam entry: an arena-backed path (see QueryPlan::PathNode) plus
  /// the running Eq.-13/-15 accumulators the walk sorts and prunes on.
  /// Copying a PathRef is O(1) regardless of path length.
  struct PathRef {
    int32_t node = -1;                // arena id of the last hop
    double last_weight = 0.0;         // w_j of that hop
    double score_sum = 0.0;           // Eq. 15 partial sum
    VideoId current_video = -1;
    bool crossed_video = false;
  };

  /// One unevaluated cell of a step's (prev-path x candidate-state) score
  /// grid. `base` is the Eq.-13 weight prefix — everything except the
  /// final sim factor, accumulated in the reference association order —
  /// and `priority` is the cell's frontier key: base * the index's exact
  /// precomputed step similarity (bit-for-bit the true weight) when the
  /// plan's priorities are exact, +infinity otherwise. `gen` is the
  /// cell's position in the reference emission order (rows in beam
  /// order, candidates in list order — its append index in the step's
  /// flat cell buffer), the tie-break that keeps winner selection
  /// byte-identical to the reference stable sort.
  struct GridCell {
    double base = 0.0;
    double priority = 0.0;
    int state = -1;        // global state of the hop
    uint32_t gen = 0;
    int32_t row = -1;      // index of the beam path this cell extends
    VideoId video = -1;    // path's video after this hop
    bool crossed = false;  // hop jumps to another video (Fig. 3 hand-over)
  };

  /// Half-open [begin, end) range of one beam path's cells within the
  /// step's flat cell buffer. A flat buffer plus spans is reused across
  /// steps (capacity survives clear()), where a vector-of-rows would
  /// reallocate every inner vector each step.
  struct RowSpan {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// A popped cell with its evaluated true weight w_j = base * sim.
  struct ScoredCell {
    GridCell cell;
    double weight = 0.0;
  };

  /// One live frontier entry: a row's current best unpopped cell position
  /// in the flat cell buffer, plus the row's end. The row successor
  /// (index + 1) enters the heap only after this cell pops.
  struct FrontierRef {
    uint32_t index = 0;
    uint32_t end = 0;
  };

  /// Per-worker scratch buffers threaded through the walk so the
  /// steady-state traversal allocates nothing: each vector's capacity
  /// survives clear() across rows, steps and videos. One instance per
  /// fan-out shard — never shared across threads.
  struct WalkScratch {
    std::vector<GridCell> cells;       // one step's flat score grid
    std::vector<RowSpan> rows;         // one span per beam path
    std::vector<ScoredCell> winners;   // SelectWinners output
    std::vector<FrontierRef> frontier; // cube-pruning heap storage
    std::vector<int> candidates;       // CandidateStates output
    std::vector<VideoId> cross_videos; // BuildCrossCells video ranking
    std::vector<PathRef> beam_paths;   // surviving beam, current step
    std::vector<PathRef> next_paths;   // beam under construction
  };

  /// Appends the within-video grid row for `path` at `step_index` to
  /// `scratch.cells`: candidate states sliced to the gap window,
  /// transition-filtered, with base = last_weight * A1 — the reference
  /// expansion minus its Eq.-15 evaluation. Each cell counts toward
  /// states_visited; its gen is its append position in the buffer.
  void BuildWithinRow(QueryPlan& plan, const PathRef& path, size_t step_index,
                      RetrievalStats* stats, int32_t row,
                      WalkScratch& scratch) const;
  /// Appends the cross-video fallback cells for `path` (called only when
  /// its within-video row came up empty, mirroring the reference) to
  /// `scratch.cells`: top-beam affine videos, base = (last_weight * A2
  /// hop) * Pi1.
  void BuildCrossCells(QueryPlan& plan, const PathRef& path, size_t step_index,
                       RetrievalStats* stats, int32_t row,
                       WalkScratch& scratch) const;
  /// The cube-pruned selection over a step's flat cell buffer (`rows`
  /// spans one range per beam path): sorts each row range by (priority
  /// desc, gen asc), seeds a frontier heap with every row's best cell,
  /// and pops the top-`beam` winners. Fills `winners` sorted by (weight
  /// desc, gen asc), exactly the reference's stable-sorted,
  /// beam-truncated expansion list. Counts beam_pruned and the pay/skip
  /// split of heap_pops / grid_cells_skipped.
  ///
  /// Who pays the query-time Eq.-14/15 evaluation depends on the mode:
  ///  - Exact priorities, intermediate step: nobody here. Priority ==
  ///    true weight bit-for-bit, so pop order is winner order and the
  ///    winners carry their priorities as weights; each pays later, at
  ///    the moment the next step consumes its weight (TraverseVideo's
  ///    deferred payment) — or never, if its path dead-ends.
  ///  - Exact priorities, `final_step`: the "lazy last level". No later
  ///    step consumes a final-step weight, and Step 6's argmax over
  ///    score_sum runs on the exact priorities, so only the single
  ///    argmax cell — the one whose weight the materialized result
  ///    actually reports — pays. `parents` supplies the score_sum
  ///    prefixes (null for the seed step, where the prefix is 0).
  ///  - Inexact (+infinity) priorities: the frontier can prove nothing,
  ///    so every cell pops and pays — the reference's
  ///    evaluate-everything behavior, same winners, same counters.
  /// Reads `scratch.cells` / `scratch.rows`, fills `scratch.winners`.
  void SelectWinners(QueryPlan& plan, size_t step_index, size_t beam,
                     bool final_step, const std::vector<PathRef>* parents,
                     WalkScratch& scratch, RetrievalStats* stats) const;

  /// Appends `state` to `path` with edge weight `weight`.
  static PathRef Extend(QueryPlan& plan, const PathRef& path, int state,
                        double weight);

  /// Candidate local states in [first, last] for step `step_index` of the
  /// plan's pattern: the plan's annotated list sliced to the range if any
  /// fall inside (and annotated_first is set), else all states in the
  /// range (counted as an annotated fallback in `stats`). Appends the
  /// chosen states to `out`.
  void CandidateStates(QueryPlan& plan, VideoId video, int first, int last,
                       size_t step_index, RetrievalStats* stats,
                       std::vector<int>* out) const;

  /// Steps 3-6 for one candidate video: the shot-level lattice walk.
  /// Fills `out` with the video's best path when the video yields a
  /// candidate. Thread-safe across distinct (plan, stats) pairs — the
  /// model, catalog and index are only read. When tracing is enabled
  /// `parent_span`/`order_index` place the video's span (and its
  /// walk/scoring children) deterministically in the trace tree. When
  /// `cancel` is set the walk polls it between pattern steps; a fired
  /// deadline/cancellation CAS-lowers the scope's cutoff to this walk's
  /// order index and returns kAborted without touching `stats`.
  WalkOutcome TraverseVideo(VideoId video, const TemporalPattern& pattern,
                            QueryPlan& plan, WalkScratch& scratch,
                            RetrievalStats* stats, RetrievedPattern* out,
                            int parent_span = -1, int64_t order_index = -1,
                            CancelScope* cancel = nullptr) const;

  /// VideoOrder that also reports whether the index's order memo
  /// answered (`memo_hit`, may be null).
  std::vector<VideoId> VideoOrder(const TemporalPattern& pattern,
                                  bool* memo_hit) const;

  /// Self-built index, rebuilt under the lock when stale; unused when an
  /// external index was supplied.
  const EventBitmapIndex& CurrentIndex() const;

  const HierarchicalModel& model_;
  const VideoCatalog& catalog_;
  TraversalOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  // external or owned_pool_.get(); may be null
  mutable std::mutex index_mutex_;
  mutable std::unique_ptr<EventBitmapIndex> owned_index_;
  const EventBitmapIndex* external_index_ = nullptr;
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_TRAVERSAL_H_
