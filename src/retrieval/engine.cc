#include "retrieval/engine.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/fault_injector.h"

namespace hmmm {

struct RetrievalEngine::Admission {
  mutable std::mutex mutex;
  std::condition_variable slot_freed;
  AdmissionOptions options;
  int in_flight = 0;
  int queued = 0;
};

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

StatusOr<RetrievalEngine> RetrievalEngine::Create(
    const VideoCatalog& catalog, ModelBuilderOptions builder_options,
    TraversalOptions traversal_options, size_t query_cache_entries) {
  ModelBuilder builder(catalog, builder_options);
  HMMM_ASSIGN_OR_RETURN(HierarchicalModel model, builder.Build());
  return RetrievalEngine(catalog, std::move(model), traversal_options,
                         query_cache_entries);
}

RetrievalEngine::RetrievalEngine(const VideoCatalog& catalog,
                                 HierarchicalModel model,
                                 TraversalOptions traversal_options,
                                 size_t query_cache_entries)
    : catalog_(&catalog),
      model_(std::make_unique<HierarchicalModel>(std::move(model))),
      traversal_options_(traversal_options),
      pool_(MakeThreadPool(traversal_options_.num_threads)),
      index_cache_(std::make_unique<EventIndexCache>()),
      admission_(std::make_unique<Admission>()),
      metrics_(std::make_unique<MetricsRegistry>()) {
  queries_total_ = metrics_->GetCounter(
      "hmmm_queries_total", "retrievals answered, cache hits included");
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
  if (query_cache_entries > 0) {
    cache_ = std::make_unique<QueryCache>(query_cache_entries);
    cache_->AttachMetrics(metrics_.get(), "hmmm_query_cache_");
  }
  index_cache_->AttachMetrics(metrics_.get());
}

RetrievalEngine::RetrievalEngine(RetrievalEngine&&) noexcept = default;
RetrievalEngine& RetrievalEngine::operator=(RetrievalEngine&&) noexcept =
    default;
RetrievalEngine::~RetrievalEngine() = default;

void RetrievalEngine::set_traversal_options(const TraversalOptions& options) {
  const int previous_threads = traversal_options_.num_threads;
  traversal_options_ = options;
  if (options.num_threads != previous_threads) {
    pool_ = MakeThreadPool(options.num_threads);
  }
  // Any option can change the ranking (beam, gap handling, max_results),
  // so cached results are no longer answers to the same question.
  if (cache_ != nullptr) cache_->Clear();
}

void RetrievalEngine::set_admission_options(const AdmissionOptions& options) {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  admission_->options = options;
  // Parked waiters re-check against the new bounds.
  admission_->slot_freed.notify_all();
}

AdmissionOptions RetrievalEngine::admission_options() const {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  return admission_->options;
}

Status RetrievalEngine::AcquireSlot() const {
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

void RetrievalEngine::ReleaseSlot() const {
  std::lock_guard<std::mutex> lock(admission_->mutex);
  --admission_->in_flight;
  admission_->slot_freed.notify_one();
}

QueryCacheStats RetrievalEngine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : QueryCacheStats{};
}

std::shared_ptr<const EventBitmapIndex> RetrievalEngine::SharedEventIndex()
    const {
  return index_cache_->Get(*model_, *catalog_, traversal_options_.trace);
}

StatusOr<std::vector<RetrievedPattern>> RetrievalEngine::Query(
    const std::string& text, RetrievalStats* stats) const {
  HMMM_ASSIGN_OR_RETURN(TemporalPattern pattern,
                        CompileQuery(text, catalog_->vocabulary()));
  return Retrieve(pattern, stats);
}

StatusOr<std::vector<RetrievedPattern>> RetrievalEngine::Retrieve(
    const TemporalPattern& pattern, RetrievalStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  // Admission before anything else: a shed query must be near-free. Only
  // admitted queries count toward hmmm_queries_total.
  HMMM_RETURN_IF_ERROR(AcquireSlot());
  // Local class so it inherits this function's access to ReleaseSlot;
  // pairs the slot with every exit path below.
  struct SlotGuard {
    const RetrievalEngine* engine;
    ~SlotGuard() { engine->ReleaseSlot(); }
  } slot_guard{this};
  queries_total_->Increment();

  const auto run_traversal = [&](RetrievalStats* computed) {
    const std::shared_ptr<const EventBitmapIndex> index = SharedEventIndex();
    HmmmTraversal traversal(*model_, *catalog_, traversal_options_,
                            pool_.get(), index.get());
    return traversal.Retrieve(pattern, computed);
  };

  if (cache_ != nullptr) {
    const std::string key = PatternSignature(pattern);
    std::vector<RetrievedPattern> cached;
    // A hit replays the recorded traversal stats into `stats`, so stats
    // consumers no longer force a bypass. A miss makes this call the
    // single-flight compute leader for `key`: identical concurrent
    // queries park inside LookupOrCompute instead of re-traversing.
    if (cache_->LookupOrCompute(key, model_->version(), &cached, stats) ==
        QueryCache::LookupOutcome::kHit) {
      query_latency_ms_->Observe(ElapsedMs(start));
      return cached;
    }
    // The leader obligation must end on every exit so waiters wake even
    // when the traversal fails or the result is uncacheable.
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
  RetrievalStats computed;
  auto results = run_traversal(&computed);
  if (!results.ok()) query_errors_total_->Increment();
  if (results.ok() && computed.degraded) queries_degraded_total_->Increment();
  if (stats != nullptr) AccumulateRetrievalStats(computed, stats);
  query_latency_ms_->Observe(ElapsedMs(start));
  return results;
}

void RetrievalEngine::RefreshResourceGauges() const {
  metrics_->GetGauge("hmmm_model_version", "model version counter; bumps on feedback training")
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
  metrics_
      ->GetGauge("hmmm_pool_task_exceptions",
                 "pool tasks that terminated with an uncaught exception")
      ->Set(static_cast<double>(pool.task_exceptions));
  {
    std::lock_guard<std::mutex> lock(admission_->mutex);
    metrics_
        ->GetGauge("hmmm_queries_in_flight",
                   "retrievals currently admitted and running")
        ->Set(static_cast<double>(admission_->in_flight));
  }
  // Armed fault points (empty outside fault-injection runs) surface as
  // gauges so a chaos run's metrics dump records what was injected.
  for (const FaultPointStats& point : FaultInjector::Instance().Snapshot()) {
    std::string name = point.point;
    for (char& c : name) {
      if (c == '.') c = '_';
    }
    metrics_
        ->GetGauge("hmmm_fault_" + name + "_hits",
                   "times this fault point was evaluated")
        ->Set(static_cast<double>(point.hits));
    metrics_
        ->GetGauge("hmmm_fault_" + name + "_fires",
                   "times this fault point injected a failure")
        ->Set(static_cast<double>(point.fires));
  }
}

std::string RetrievalEngine::DumpMetricsPrometheus() const {
  RefreshResourceGauges();
  return metrics_->RenderPrometheus();
}

std::string RetrievalEngine::DumpMetricsJson() const {
  RefreshResourceGauges();
  return metrics_->RenderJson();
}

}  // namespace hmmm
