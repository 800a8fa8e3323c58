#ifndef HMMM_API_VIDEO_DATABASE_H_
#define HMMM_API_VIDEO_DATABASE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/writer_priority_mutex.h"
#include "core/category_level.h"
#include "core/model_builder.h"
#include "feedback/trainer.h"
#include "observability/metrics_registry.h"
#include "retrieval/admission.h"
#include "retrieval/event_index_cache.h"
#include "retrieval/qbe.h"
#include "retrieval/query_cache.h"
#include "retrieval/three_level.h"
#include "retrieval/traversal.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace hmmm {

/// Options bundle for a VideoDatabase instance.
struct VideoDatabaseOptions {
  ModelBuilderOptions builder;
  /// traversal.num_threads sizes a worker pool owned by the database and
  /// shared by every query's per-video fan-out (1 = serial, 0 = one per
  /// hardware thread). Ranked results are identical at any thread count.
  TraversalOptions traversal;
  FeedbackTrainerOptions feedback;
  /// Build and use the third (video-category) level for Step-2 pruning.
  bool enable_category_level = false;
  CategoryLevelOptions categories;
  /// Entries in the query-result LRU cache (same semantics as the
  /// RetrievalEngine cache: keyed by pattern signature + model version,
  /// single-flight, degraded results never cached). 0 disables caching.
  size_t query_cache_entries = 64;
  /// Bounds concurrent Retrieve/Query calls; saturated databases shed
  /// load with kResourceExhausted. Default: admission control off.
  AdmissionOptions admission;
};

/// Per-query serving controls layered over the database-wide
/// TraversalOptions: an absolute wall-clock deadline (anytime degradation,
/// not an error), an external cancellation token (e.g. a server's
/// shutdown token) and an optional trace sink. Fields left at their
/// defaults inherit whatever VideoDatabaseOptions::traversal carries.
struct QueryControls {
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  const CancellationToken* cancellation = nullptr;
  QueryTrace* trace = nullptr;
};

/// The multimedia database management system view of this library
/// (the paper's MMDBMS): one object owning the archive catalog, the
/// HMMM, the feedback trainer and (optionally) the category level, with
/// query / feedback / persistence entry points. This is the recommended
/// API for applications; the lower-level pieces remain available for
/// research use.
class VideoDatabase {
 public:
  /// Builds a database over an ingested catalog (takes ownership).
  static StatusOr<VideoDatabase> Create(VideoCatalog catalog,
                                        VideoDatabaseOptions options = {});

  /// Loads a persisted catalog + model pair.
  static StatusOr<VideoDatabase> Open(const std::string& catalog_path,
                                      const std::string& model_path,
                                      VideoDatabaseOptions options = {});

  /// Builds a database over an already-built model (same agreement
  /// checks as Open, no file round-trip). This is how a shard server
  /// adopts a PartitionForServing slice: the slice model must be served
  /// as-is — rebuilding it from the slice catalog would refit the Eq.-3
  /// normalizer and the B1'/P12 centroids to the slice and break
  /// bit-identity with the full archive.
  static StatusOr<VideoDatabase> CreateWithModel(
      VideoCatalog catalog, HierarchicalModel model,
      VideoDatabaseOptions options = {});

  /// Opens a frozen snapshot file (snapshot_format.h) by mmap'ing it:
  /// every matrix is served as a borrowed view of the mapped pages (the
  /// reader is kept alive inside the database), and the frozen event
  /// index is adopted so no Eq.-14 sweep runs at open. Cold-start cost is
  /// O(shot records), independent of feature/matrix volume. Queries
  /// return byte-identical rankings to a blob-opened database; training
  /// works too (mutated matrices copy to the heap on first write).
  static StatusOr<VideoDatabase> OpenSnapshot(
      const std::string& path, VideoDatabaseOptions options = {},
      const SnapshotOptions& snapshot_options = {});

  /// OpenSnapshot, degrading to the legacy blob pair on ANY snapshot
  /// failure (missing file, map failure, corruption) — a snapshot is a
  /// serving accelerator, never a single point of failure. Pass an empty
  /// `snapshot_path` to skip straight to the blobs.
  static StatusOr<VideoDatabase> OpenSnapshotWithFallback(
      const std::string& snapshot_path, const std::string& catalog_path,
      const std::string& model_path, VideoDatabaseOptions options = {},
      const SnapshotOptions& snapshot_options = {});

  /// Persists the catalog and the (possibly trained) model.
  Status Save(const std::string& catalog_path,
              const std::string& model_path) const;

  /// Freezes the current catalog + model (+ event index) into a snapshot
  /// file at `path` (atomic tmp + rename), under the shared state lock.
  Status WriteSnapshot(const std::string& path,
                       SnapshotWriteOptions options = {}) const;

  /// Freezes into `dir/snapshot-<generation>.hmms` and repoints
  /// `dir/CURRENT` (the generation publish protocol); returns the
  /// published path. This is how Train() results reach cold-starting
  /// shards without a byte of re-serialization on their side.
  StatusOr<std::string> PublishSnapshot(const std::string& dir,
                                        uint64_t generation) const;

  // Defined in video_database.cc where Admission is complete.
  VideoDatabase(VideoDatabase&&) noexcept;
  VideoDatabase& operator=(VideoDatabase&&) noexcept;
  ~VideoDatabase();

  // -- Queries -----------------------------------------------------------
  //
  // All query entry points are safe to call concurrently with each other
  // and with the feedback/replace entry points: queries hold a shared
  // lock over the catalog/model/category state, mutators an exclusive
  // one. Results are served from the LRU cache when an identical pattern
  // was answered under the current model version (hits replay the
  // recorded RetrievalStats); concurrent identical misses are coalesced
  // (single-flight). May fail with kResourceExhausted when admission
  // control is configured and the database is saturated.

  /// Compiles and answers a textual temporal pattern query.
  StatusOr<std::vector<RetrievedPattern>> Query(
      const std::string& text, RetrievalStats* stats = nullptr) const;

  /// Same, with per-query deadline/cancellation/trace controls.
  StatusOr<std::vector<RetrievedPattern>> Query(
      const std::string& text, const QueryControls& controls,
      RetrievalStats* stats = nullptr) const;

  /// Answers a translated pattern.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, RetrievalStats* stats = nullptr) const;

  /// Same, with per-query deadline/cancellation/trace controls. A fired
  /// deadline or cancellation degrades (anytime prefix ranking,
  /// stats->degraded = true) rather than failing; degraded results are
  /// never cached.
  StatusOr<std::vector<RetrievedPattern>> Retrieve(
      const TemporalPattern& pattern, const QueryControls& controls,
      RetrievalStats* stats = nullptr) const;

  /// Query by example: ranks shots against a raw feature vector.
  StatusOr<std::vector<QbeResult>> QueryByExample(
      const std::vector<double>& raw_features, QbeOptions options = {}) const;

  /// "More like this shot".
  StatusOr<std::vector<QbeResult>> MoreLikeShot(ShotId shot,
                                                QbeOptions options = {}) const;

  // -- Feedback ----------------------------------------------------------

  /// Marks a retrieved pattern as positive; triggers offline retraining
  /// automatically when the feedback threshold is reached.
  Status MarkPositive(const RetrievedPattern& pattern);

  /// Forces a retraining round regardless of the threshold. Returns true
  /// if training ran.
  StatusOr<bool> Train();

  /// Feedback rounds applied so far.
  size_t training_rounds() const;

  // -- Introspection -----------------------------------------------------

  /// Consistent snapshot of the archive/model shape, taken under the
  /// state lock — safe to read while feedback or ReplaceCatalog runs on
  /// another thread (unlike the raw catalog()/model() references).
  struct HealthSnapshot {
    size_t videos = 0;
    size_t shots = 0;
    size_t annotated_shots = 0;
    uint64_t model_version = 0;
  };
  HealthSnapshot Health() const;

  const VideoCatalog& catalog() const { return *catalog_; }
  const HierarchicalModel& model() const { return *model_; }
  /// Present only when options.enable_category_level was set.
  const CategoryLevel* categories() const {
    return categories_.has_value() ? &*categories_ : nullptr;
  }

  /// The database-owned metrics registry: query counters and latency
  /// histogram, feedback-training metrics, pool/model resource gauges.
  /// Stable for the database's lifetime (also across moves).
  MetricsRegistry& metrics_registry() const { return *metrics_; }

  /// One-stop JSON snapshot of every registered metric, refreshing the
  /// pool/model gauges first. The shape matches
  /// MetricsRegistry::RenderJson().
  std::string DumpMetrics() const;
  /// The same dump in Prometheus text exposition format.
  std::string DumpMetricsPrometheus() const;

  /// Drops every cached query result. Called internally whenever the
  /// model is replaced wholesale (ReplaceCatalog) or retrained (Train,
  /// threshold-triggered training inside MarkPositive): a rebuilt model's
  /// version counter restarts at zero, so the cache's version guard alone
  /// cannot tell a fresh model from the one the entries were computed
  /// under.
  void ClearQueryCache();

  /// Hit/miss/occupancy counters of the query-result cache; all-zero
  /// capacity when caching is disabled.
  QueryCacheStats cache_stats() const;

  /// Replaces the admission policy. Takes effect for subsequent
  /// Retrieve/Query calls; already-parked waiters re-evaluate against
  /// the new bounds.
  void set_admission_options(const AdmissionOptions& options);
  AdmissionOptions admission_options() const;

  /// Re-clusters the category level (e.g. after heavy retraining).
  Status RebuildCategories();

  /// Swaps in a grown catalog (e.g. replayed from a CatalogJournal after
  /// more footage was ingested) and rebuilds the model, carrying over
  /// learned A1/Pi1/A2/Pi2 where possible (RebuildPreservingLearning).
  /// Pending un-trained feedback is dropped.
  Status ReplaceCatalog(VideoCatalog catalog);

 private:
  VideoDatabase(VideoCatalog catalog, HierarchicalModel model,
                VideoDatabaseOptions options);

  /// Copies pool usage and the model version into registry gauges.
  /// Caller holds state_mutex_ (shared suffices).
  void RefreshResourceGauges() const;

  /// RebuildCategories body; caller holds state_mutex_ exclusively.
  Status RebuildCategoriesLocked();

  /// Blocks (bounded) for an admission slot per admission_options().
  /// Every OK must be paired with ReleaseSlot().
  Status AcquireSlot() const;
  void ReleaseSlot() const;

  VideoDatabaseOptions options_;
  std::unique_ptr<VideoCatalog> catalog_;
  std::unique_ptr<HierarchicalModel> model_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<FeedbackTrainer> trainer_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads resolves to 1
  std::optional<CategoryLevel> categories_;
  /// Readers-writer lock over catalog_/model_/categories_/trainer_:
  /// queries share, mutators (MarkPositive/Train/ReplaceCatalog) are
  /// exclusive, and a waiting mutator holds off newly arriving queries
  /// so a query stream cannot starve it. No path takes it twice.
  /// unique_ptr keeps the database movable.
  std::unique_ptr<WriterPriorityMutex> state_mutex_;
  std::unique_ptr<QueryCache> cache_;  // null when caching is disabled
  /// For a snapshot-opened database: the mapping every borrowed matrix
  /// points into. Declared above the index cache so an adopted index
  /// (which borrows the frozen sims) is destroyed first.
  std::unique_ptr<SnapshotReader> snapshot_keepalive_;
  /// The one event index per model version that every traversal shares.
  /// Starts from the snapshot's frozen index when there is one; after
  /// training, the first query rebuilds it.
  std::unique_ptr<EventIndexCache> index_cache_;
  /// Admission mutex + cv + in-flight counters behind a pointer, same
  /// movability trick as state_mutex_.
  struct Admission;
  std::unique_ptr<Admission> admission_;
  // Hot-path handles into metrics_ (stable: the registry never relocates
  // entries).
  Counter* queries_total_ = nullptr;
  Counter* query_errors_total_ = nullptr;
  Counter* queries_degraded_total_ = nullptr;
  Counter* admission_rejected_total_ = nullptr;
  Histogram* query_latency_ms_ = nullptr;
};

}  // namespace hmmm

#endif  // HMMM_API_VIDEO_DATABASE_H_
