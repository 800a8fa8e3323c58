#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Folds the span forests the serving processes return for want_trace
// requests into per-request layer times.

#include <map>
#include <string>
#include <vector>

#include "observability/query_trace.h"

namespace perfbench {

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Indexed like `spans`.
std::vector<double> SelfTimesMs(const std::vector<hmmm::TraceSpan>& spans);

/// Running sums over the folded requests of one kind.
struct SpanFold {
  size_t requests = 0;
  /// Sum over requests of the summed self time of each span name.
  std::map<std::string, double> self_ms;
  /// Per request: the slowest shard_fanout span.
  std::vector<double> fanout_ms;
  /// Per request: coordinator_query minus its slowest child.
  std::vector<double> coordinator_self_ms;

  void Fold(const std::vector<hmmm::TraceSpan>& spans);
  void Merge(const SpanFold& other);
  /// Mean self time per folded request of the spans named `name`.
  double MeanSelfMs(const std::string& name) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
