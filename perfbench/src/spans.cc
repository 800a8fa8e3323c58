#include "spans.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

std::vector<double> SelfTimesMs(const std::vector<hmmm::TraceSpan>& spans) {
  std::unordered_map<int, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> child_intervals(spans.size());
  for (const hmmm::TraceSpan& span : spans) {
    const auto parent = index_of.find(span.parent);
    if (parent == index_of.end()) continue;
    child_intervals[parent->second].emplace_back(
        span.start_offset_ms, span.start_offset_ms + span.elapsed_ms);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double begin = spans[i].start_offset_ms;
    const double end = begin + spans[i].elapsed_ms;
    std::vector<std::pair<double, double>>& children = child_intervals[i];
    std::sort(children.begin(), children.end());
    // Length of the union of the children's intervals, clipped to the
    // parent's (parallel children overlap; remote ones may overhang).
    double covered = 0.0;
    double reach = begin;
    for (const auto& [child_begin, child_end] : children) {
      const double from = std::max(child_begin, reach);
      const double to = std::min(child_end, end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = std::max(0.0, spans[i].elapsed_ms - covered);
  }
  return self;
}

void SpanFold::Fold(const std::vector<hmmm::TraceSpan>& spans) {
  ++requests;
  const std::vector<double> self = SelfTimesMs(spans);
  double slowest_fanout = -1.0;
  const hmmm::TraceSpan* coordinator = nullptr;
  for (size_t i = 0; i < spans.size(); ++i) {
    const hmmm::TraceSpan& span = spans[i];
    self_ms[span.name] += self[i];
    if (span.name == "shard_fanout") slowest_fanout = std::max(slowest_fanout, span.elapsed_ms);
    if (span.name == "coordinator_query") coordinator = &span;
  }
  if (slowest_fanout >= 0.0) fanout_ms.push_back(slowest_fanout);
  if (coordinator != nullptr) {
    double slowest_child = 0.0;
    for (const hmmm::TraceSpan& span : spans) {
      if (span.parent == coordinator->id) {
        slowest_child = std::max(slowest_child, span.elapsed_ms);
      }
    }
    coordinator_self_ms.push_back(coordinator->elapsed_ms - slowest_child);
  }
}

void SpanFold::Merge(const SpanFold& other) {
  requests += other.requests;
  for (const auto& [name, ms] : other.self_ms) self_ms[name] += ms;
  fanout_ms.insert(fanout_ms.end(), other.fanout_ms.begin(), other.fanout_ms.end());
  coordinator_self_ms.insert(coordinator_self_ms.end(), other.coordinator_self_ms.begin(),
                             other.coordinator_self_ms.end());
}

double SpanFold::MeanSelfMs(const std::string& name) const {
  const auto it = self_ms.find(name);
  return it == self_ms.end() || requests == 0 ? 0.0 : it->second / static_cast<double>(requests);
}

}  // namespace perfbench
