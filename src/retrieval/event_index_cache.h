#ifndef HMMM_RETRIEVAL_EVENT_INDEX_CACHE_H_
#define HMMM_RETRIEVAL_EVENT_INDEX_CACHE_H_

#include <memory>
#include <mutex>

#include "observability/metrics_registry.h"
#include "observability/query_trace.h"
#include "retrieval/query_plan.h"

namespace hmmm {

/// The index-sharing policy of a serving facade (RetrievalEngine,
/// VideoDatabase): one EventBitmapIndex per model version, shared by
/// every traversal. The index is rebuilt lazily, by the first query that
/// finds it stale (FreshFor compares model versions), so a training round
/// never pays for it. Sharing one instance also shares its Step-2 order
/// memo across queries. Hold it through a unique_ptr to keep the owner
/// movable.
class EventIndexCache {
 public:
  /// Registers hmmm_event_index_builds_total in `registry` and counts
  /// every build there.
  void AttachMetrics(MetricsRegistry* registry);

  /// Starts from a prebuilt index (a snapshot's frozen one) instead of
  /// building on the first query. Not counted as a build.
  void Adopt(std::shared_ptr<const EventBitmapIndex> index);

  /// The index for `model`'s current version, built under the lock when
  /// the held one is missing or stale; concurrent callers wait for the one
  /// build. A build is recorded as an `event_index_build` span in `trace`
  /// (may be null). Returned as a shared_ptr so an in-flight query keeps
  /// its index alive across a concurrent rebuild.
  std::shared_ptr<const EventBitmapIndex> Get(const HierarchicalModel& model,
                                              const VideoCatalog& catalog,
                                              QueryTrace* trace = nullptr);

  /// Drops the held index. Needed when the model is replaced wholesale:
  /// a rebuilt model's version counter restarts and could match the old
  /// index's version.
  void Reset();

 private:
  std::mutex mutex_;
  std::shared_ptr<const EventBitmapIndex> index_;
  Counter* builds_total_ = nullptr;
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_EVENT_INDEX_CACHE_H_
