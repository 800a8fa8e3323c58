#include "api/video_database.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/logging.h"
#include "storage/model_io.h"

namespace hmmm {
namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// Mutex + cv + in-flight counters of the admission gate, behind a
/// pointer so the database stays movable.
struct VideoDatabase::Admission {
  std::mutex mutex;
  std::condition_variable slot_freed;
  AdmissionOptions options;
  int in_flight = 0;
  int queued = 0;
};

VideoDatabase::VideoDatabase(VideoCatalog catalog, HierarchicalModel model,
                             VideoDatabaseOptions options)
    : options_(std::move(options)),
      catalog_(std::make_unique<VideoCatalog>(std::move(catalog))),
      model_(std::make_unique<HierarchicalModel>(std::move(model))),
      metrics_(std::make_unique<MetricsRegistry>()),
      trainer_(std::make_unique<FeedbackTrainer>(*catalog_,
                                                 options_.feedback)),
      pool_(MakeThreadPool(options_.traversal.num_threads)),
      state_mutex_(std::make_unique<WriterPriorityMutex>()),
      index_cache_(std::make_unique<EventIndexCache>()),
      admission_(std::make_unique<Admission>()) {
  admission_->options = options_.admission;
  queries_total_ = metrics_->GetCounter("hmmm_queries_total",
                                        "temporal-pattern retrievals answered");
  query_errors_total_ = metrics_->GetCounter(
      "hmmm_query_errors_total", "retrievals that returned a non-OK status");
  queries_degraded_total_ = metrics_->GetCounter(
      "hmmm_queries_degraded_total",
      "retrievals that returned an anytime prefix result after a "
      "deadline or cancellation fired");
  admission_rejected_total_ = metrics_->GetCounter(
      "hmmm_admission_rejected_total",
      "retrievals shed by admission control (kResourceExhausted)");
  query_latency_ms_ =
      metrics_->GetHistogram("hmmm_query_latency_ms", DefaultLatencyBucketsMs(),
                             "end-to-end Retrieve() wall time");
  if (options_.query_cache_entries > 0) {
    cache_ = std::make_unique<QueryCache>(options_.query_cache_entries);
    cache_->AttachMetrics(metrics_.get(), "hmmm_query_cache_");
  }
  trainer_->AttachMetrics(metrics_.get());
  index_cache_->AttachMetrics(metrics_.get());
}

VideoDatabase::VideoDatabase(VideoDatabase&&) noexcept = default;
VideoDatabase& VideoDatabase::operator=(VideoDatabase&&) noexcept = default;
VideoDatabase::~VideoDatabase() = default;

StatusOr<VideoDatabase> VideoDatabase::Create(VideoCatalog catalog,
                                              VideoDatabaseOptions options) {
  HMMM_RETURN_IF_ERROR(catalog.Validate());
  ModelBuilder builder(catalog, options.builder);
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model, builder.Build());
  VideoDatabase db(std::move(catalog), std::move(model), std::move(options));
  if (db.options_.enable_category_level) {
    HMMM_RETURN_IF_ERROR(db.RebuildCategories());
  }
  return db;
}

StatusOr<VideoDatabase> VideoDatabase::Open(const std::string& catalog_path,
                                            const std::string& model_path,
                                            VideoDatabaseOptions options) {
  HMMM_ASSIGN_OR_RETURN(VideoCatalog catalog, LoadCatalog(catalog_path));
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model,
                        HierarchicalModel::LoadFromFile(model_path));
  if (model.num_videos() != catalog.num_videos()) {
    return Status::FailedPrecondition(
        "model and catalog disagree on video count");
  }
  if (model.num_global_states() != catalog.num_annotated_shots()) {
    return Status::FailedPrecondition(
        "model and catalog disagree on annotated shots");
  }
  VideoDatabase db(std::move(catalog), std::move(model), std::move(options));
  if (db.options_.enable_category_level) {
    HMMM_RETURN_IF_ERROR(db.RebuildCategories());
  }
  return db;
}

StatusOr<VideoDatabase> VideoDatabase::OpenSnapshot(
    const std::string& path, VideoDatabaseOptions options,
    const SnapshotOptions& snapshot_options) {
  HMMM_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotReader> reader,
                        SnapshotReader::Open(path, snapshot_options));
  HMMM_ASSIGN_OR_RETURN(VideoCatalog catalog, reader->BuildCatalog());
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model, reader->BuildModel());
  // The same agreement checks Open() runs on a blob pair; the full
  // Validate() pair is skipped deliberately — the writer ran it, and
  // rerunning it here would rescan every mapped matrix.
  if (model.num_videos() != catalog.num_videos()) {
    return Status::FailedPrecondition(
        "snapshot model and catalog disagree on video count");
  }
  if (model.num_global_states() != catalog.num_annotated_shots()) {
    return Status::FailedPrecondition(
        "snapshot model and catalog disagree on annotated shots");
  }
  VideoDatabase db(std::move(catalog), std::move(model), std::move(options));
  if (reader->has_event_index()) {
    HMMM_ASSIGN_OR_RETURN(EventBitmapIndex index,
                          reader->BuildEventIndex(*db.model_, *db.catalog_));
    db.index_cache_->Adopt(
        std::make_shared<const EventBitmapIndex>(std::move(index)));
  }
  // The keepalive goes in AFTER everything borrowing it was built, and
  // the member order guarantees borrowers are destroyed first.
  db.snapshot_keepalive_ = std::move(reader);
  if (db.options_.enable_category_level) {
    HMMM_RETURN_IF_ERROR(db.RebuildCategories());
  }
  return db;
}

StatusOr<VideoDatabase> VideoDatabase::OpenSnapshotWithFallback(
    const std::string& snapshot_path, const std::string& catalog_path,
    const std::string& model_path, VideoDatabaseOptions options,
    const SnapshotOptions& snapshot_options) {
  if (!snapshot_path.empty()) {
    StatusOr<VideoDatabase> db =
        OpenSnapshot(snapshot_path, options, snapshot_options);
    if (db.ok()) return db;
    HMMM_LOG(Warning) << "snapshot open failed (" << db.status().ToString()
                      << "); falling back to blob load";
  }
  return Open(catalog_path, model_path, std::move(options));
}

StatusOr<VideoDatabase> VideoDatabase::CreateWithModel(
    VideoCatalog catalog, HierarchicalModel model,
    VideoDatabaseOptions options) {
  HMMM_RETURN_IF_ERROR(catalog.Validate());
  HMMM_RETURN_IF_ERROR(model.Validate());
  if (model.num_videos() != catalog.num_videos()) {
    return Status::FailedPrecondition(
        "model and catalog disagree on video count");
  }
  if (model.num_global_states() != catalog.num_annotated_shots()) {
    return Status::FailedPrecondition(
        "model and catalog disagree on annotated shots");
  }
  VideoDatabase db(std::move(catalog), std::move(model), std::move(options));
  if (db.options_.enable_category_level) {
    HMMM_RETURN_IF_ERROR(db.RebuildCategories());
  }
  return db;
}

Status VideoDatabase::Save(const std::string& catalog_path,
                           const std::string& model_path) const {
  std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
  HMMM_RETURN_IF_ERROR(SaveCatalog(*catalog_, catalog_path));
  return model_->SaveToFile(model_path);
}

Status VideoDatabase::WriteSnapshot(const std::string& path,
                                    SnapshotWriteOptions options) const {
  std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
  return ::hmmm::WriteSnapshot(*model_, *catalog_, path, options);
}

StatusOr<std::string> VideoDatabase::PublishSnapshot(const std::string& dir,
                                                     uint64_t generation) const {
  std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
  return ::hmmm::PublishSnapshot(*model_, *catalog_, dir, generation);
}

StatusOr<std::vector<RetrievedPattern>> VideoDatabase::Query(
    const std::string& text, RetrievalStats* stats) const {
  return Query(text, QueryControls{}, stats);
}

StatusOr<std::vector<RetrievedPattern>> VideoDatabase::Query(
    const std::string& text, const QueryControls& controls,
    RetrievalStats* stats) const {
  TemporalPattern pattern;
  {
    std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
    HMMM_ASSIGN_OR_RETURN(pattern,
                          CompileQuery(text, catalog_->vocabulary()));
  }
  return Retrieve(pattern, controls, stats);
}

StatusOr<std::vector<RetrievedPattern>> VideoDatabase::Retrieve(
    const TemporalPattern& pattern, RetrievalStats* stats) const {
  return Retrieve(pattern, QueryControls{}, stats);
}

StatusOr<std::vector<RetrievedPattern>> VideoDatabase::Retrieve(
    const TemporalPattern& pattern, const QueryControls& controls,
    RetrievalStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  // Admission before anything else: a shed query must be near-free. Only
  // admitted queries count toward hmmm_queries_total or take the state
  // lock.
  HMMM_RETURN_IF_ERROR(AcquireSlot());
  struct SlotGuard {
    const VideoDatabase* db;
    ~SlotGuard() { db->ReleaseSlot(); }
  } slot_guard{this};
  std::shared_lock<WriterPriorityMutex> state_lock(*state_mutex_);
  queries_total_->Increment();

  // Per-query controls override the database-wide defaults only when
  // explicitly set, so plain Retrieve(pattern) keeps any deadline/trace
  // the caller baked into VideoDatabaseOptions::traversal.
  TraversalOptions traversal_options = options_.traversal;
  if (controls.deadline != kNoDeadline) {
    traversal_options.deadline = controls.deadline;
  }
  if (controls.cancellation != nullptr) {
    traversal_options.cancellation = controls.cancellation;
  }
  if (controls.trace != nullptr) traversal_options.trace = controls.trace;

  // Every traversal runs on the database's one index for the current
  // model version: a snapshot-opened database starts from the adopted
  // frozen index, and after training the first query rebuilds it (the
  // frozen sims are the same bits the build produces, so rankings are
  // identical either way). The shared index carries the Step-2 order
  // memo from query to query.
  const auto run_traversal =
      [&](RetrievalStats* computed) -> StatusOr<std::vector<RetrievedPattern>> {
    const std::shared_ptr<const EventBitmapIndex> index =
        index_cache_->Get(*model_, *catalog_, traversal_options.trace);
    if (categories_.has_value()) {
      ThreeLevelTraversal traversal(*model_, *catalog_, *categories_,
                                    traversal_options, pool_.get(),
                                    index.get());
      return traversal.Retrieve(pattern, computed);
    }
    HmmmTraversal traversal(*model_, *catalog_, traversal_options,
                            pool_.get(), index.get());
    return traversal.Retrieve(pattern, computed);
  };

  if (cache_ != nullptr) {
    const std::string key = PatternSignature(pattern);
    std::vector<RetrievedPattern> cached;
    // A hit replays the recorded traversal stats into `stats`. A miss
    // makes this call the single-flight compute leader for `key`:
    // identical concurrent queries park inside LookupOrCompute instead
    // of re-traversing. (Waiters park holding their shared state lock,
    // which is safe: the leader holds a shared lock too, so it can
    // always finish.)
    if (cache_->LookupOrCompute(key, model_->version(), &cached, stats) ==
        QueryCache::LookupOutcome::kHit) {
      if (controls.trace != nullptr) {
        const int span = controls.trace->BeginSpan("cache_hit");
        controls.trace->EndSpan(span);
      }
      query_latency_ms_->Observe(ElapsedMs(start));
      return cached;
    }
    struct ComputeGuard {
      QueryCache* cache;
      const std::string& key;
      ~ComputeGuard() { cache->FinishCompute(key); }
    } compute_guard{cache_.get(), key};
    RetrievalStats computed;
    auto results = run_traversal(&computed);
    if (!results.ok()) {
      query_errors_total_->Increment();
    } else if (computed.degraded) {
      // An anytime result answers *this* caller but is never cached:
      // the next uncontended asker deserves the full ranking.
      queries_degraded_total_->Increment();
    } else {
      cache_->Insert(key, model_->version(), results.value(), computed);
    }
    if (stats != nullptr) AccumulateRetrievalStats(computed, stats);
    query_latency_ms_->Observe(ElapsedMs(start));
    return results;
  }
  // A local stats block (merged into the caller's at the end) lets the
  // degraded-query counter fire even when the caller passed no stats.
  RetrievalStats computed;
  auto results = run_traversal(&computed);
  if (!results.ok()) query_errors_total_->Increment();
  if (results.ok() && computed.degraded) queries_degraded_total_->Increment();
  if (stats != nullptr) AccumulateRetrievalStats(computed, stats);
  query_latency_ms_->Observe(ElapsedMs(start));
  return results;
}

StatusOr<std::vector<QbeResult>> VideoDatabase::QueryByExample(
    const std::vector<double>& raw_features, QbeOptions options) const {
  std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
  QbeMatcher matcher(*model_, std::move(options));
  return matcher.Retrieve(raw_features);
}

StatusOr<std::vector<QbeResult>> VideoDatabase::MoreLikeShot(
    ShotId shot, QbeOptions options) const {
  std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
  QbeMatcher matcher(*model_, std::move(options));
  return matcher.RetrieveSimilarTo(shot);
}

Status VideoDatabase::MarkPositive(const RetrievedPattern& pattern) {
  std::unique_lock<WriterPriorityMutex> lock(*state_mutex_);
  HMMM_RETURN_IF_ERROR(trainer_->MarkPositive(*model_, pattern));
  HMMM_ASSIGN_OR_RETURN(bool trained, trainer_->MaybeTrain(*model_));
  // Training rewrites A1/Pi1/A2/Pi2 and bumps the model version; the
  // cache's version guard would lazily flush, but an eager clear keeps
  // the occupancy gauge honest immediately.
  if (trained && cache_ != nullptr) cache_->Clear();
  return Status::OK();
}

StatusOr<bool> VideoDatabase::Train() {
  std::unique_lock<WriterPriorityMutex> lock(*state_mutex_);
  HMMM_ASSIGN_OR_RETURN(bool trained,
                        trainer_->MaybeTrain(*model_, /*force=*/true));
  if (trained && cache_ != nullptr) cache_->Clear();
  return trained;
}

Status VideoDatabase::ReplaceCatalog(VideoCatalog catalog) {
  std::unique_lock<WriterPriorityMutex> lock(*state_mutex_);
  HMMM_RETURN_IF_ERROR(catalog.Validate());
  HMMM_ASSIGN_OR_RETURN(
      HierarchicalModel model,
      RebuildPreservingLearning(*model_, catalog, options_.builder));
  *catalog_ = std::move(catalog);
  *model_ = std::move(model);
  // The rebuilt model's version counter restarts, so it can collide with
  // the version the cached rankings were computed under — the guard
  // cannot catch that; clear explicitly. The shared index has the same
  // version-collision hazard (FreshFor compares counters), and nothing
  // borrows the mapping once the old catalog/model are gone, so both go
  // now — index first, an adopted one borrows the mapping's sims.
  index_cache_->Reset();
  snapshot_keepalive_.reset();
  if (cache_ != nullptr) cache_->Clear();
  // The trainer references the catalog object (stable address), but any
  // pending global-state feedback refers to the old model: start fresh.
  trainer_ = std::make_unique<FeedbackTrainer>(*catalog_, options_.feedback);
  trainer_->AttachMetrics(metrics_.get());
  if (options_.enable_category_level) {
    HMMM_RETURN_IF_ERROR(RebuildCategoriesLocked());
  }
  return Status::OK();
}

size_t VideoDatabase::training_rounds() const {
  std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
  return trainer_->rounds_trained();
}

VideoDatabase::HealthSnapshot VideoDatabase::Health() const {
  std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
  HealthSnapshot health;
  health.videos = catalog_->num_videos();
  health.shots = catalog_->num_shots();
  health.annotated_shots = catalog_->num_annotated_shots();
  health.model_version = model_->version();
  return health;
}

void VideoDatabase::ClearQueryCache() {
  if (cache_ != nullptr) cache_->Clear();
}

QueryCacheStats VideoDatabase::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : QueryCacheStats{};
}

void VideoDatabase::set_admission_options(const AdmissionOptions& options) {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  admission_->options = options;
  // Parked waiters re-check against the new bounds.
  admission_->slot_freed.notify_all();
}

AdmissionOptions VideoDatabase::admission_options() const {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  return admission_->options;
}

Status VideoDatabase::AcquireSlot() const {
  Admission& admission = *admission_;
  std::unique_lock<std::mutex> lock(admission.mutex);
  const auto admitted = [&admission] {
    return admission.options.max_concurrent <= 0 ||
           admission.in_flight < admission.options.max_concurrent;
  };
  if (!admitted()) {
    if (admission.queued >= admission.options.max_queued) {
      // Saturated and the bounded wait queue is full: shed immediately
      // rather than letting latency pile up behind a burst.
      admission_rejected_total_->Increment();
      return Status::ResourceExhausted(
          "retrieval admission queue full (load shed)");
    }
    ++admission.queued;
    const bool got_slot = admission.slot_freed.wait_for(
        lock, admission.options.max_queue_wait, admitted);
    --admission.queued;
    if (!got_slot) {
      admission_rejected_total_->Increment();
      return Status::ResourceExhausted(
          "timed out waiting for a retrieval slot");
    }
  }
  ++admission.in_flight;
  return Status::OK();
}

void VideoDatabase::ReleaseSlot() const {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  --admission_->in_flight;
  admission_->slot_freed.notify_one();
}

void VideoDatabase::RefreshResourceGauges() const {
  metrics_
      ->GetGauge("hmmm_model_version",
                 "model version counter; bumps on feedback training")
      ->Set(static_cast<double>(model_->version()));
  const ThreadPoolStats pool =
      pool_ != nullptr ? pool_->stats() : ThreadPoolStats{};
  metrics_->GetGauge("hmmm_pool_workers", "worker threads in the fan-out pool")
      ->Set(static_cast<double>(pool.workers));
  metrics_->GetGauge("hmmm_pool_queue_depth", "tasks currently queued")
      ->Set(static_cast<double>(pool.queue_depth));
  metrics_
      ->GetGauge("hmmm_pool_tasks_executed",
                 "tasks completed since pool construction")
      ->Set(static_cast<double>(pool.tasks_executed));
  metrics_
      ->GetGauge("hmmm_pool_busy_ms",
                 "summed wall time workers spent inside tasks")
      ->Set(pool.busy_ms);
}

std::string VideoDatabase::DumpMetrics() const {
  {
    std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
    RefreshResourceGauges();
  }
  return metrics_->RenderJson();
}

std::string VideoDatabase::DumpMetricsPrometheus() const {
  {
    std::shared_lock<WriterPriorityMutex> lock(*state_mutex_);
    RefreshResourceGauges();
  }
  return metrics_->RenderPrometheus();
}

Status VideoDatabase::RebuildCategories() {
  std::unique_lock<WriterPriorityMutex> lock(*state_mutex_);
  return RebuildCategoriesLocked();
}

Status VideoDatabase::RebuildCategoriesLocked() {
  HMMM_ASSIGN_OR_RETURN(CategoryLevel level,
                        BuildCategoryLevel(*model_, options_.categories));
  categories_ = std::move(level);
  return Status::OK();
}

}  // namespace hmmm
