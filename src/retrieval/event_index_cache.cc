#include "retrieval/event_index_cache.h"

namespace hmmm {

void EventIndexCache::AttachMetrics(MetricsRegistry* registry) {
  builds_total_ = registry->GetCounter(
      "hmmm_event_index_builds_total",
      "event bitmap index builds (one per model version in use)");
}

void EventIndexCache::Adopt(std::shared_ptr<const EventBitmapIndex> index) {
  std::lock_guard<std::mutex> lock(mutex_);
  index_ = std::move(index);
}

std::shared_ptr<const EventBitmapIndex> EventIndexCache::Get(
    const HierarchicalModel& model, const VideoCatalog& catalog,
    QueryTrace* trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_ == nullptr || !index_->FreshFor(model)) {
    ScopedSpan span(trace, "event_index_build");
    index_ = std::make_shared<EventBitmapIndex>(model, catalog);
    if (builds_total_ != nullptr) builds_total_->Increment();
  }
  return index_;
}

void EventIndexCache::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  index_.reset();
}

}  // namespace hmmm
