#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

// The load generator: the deployment under test, a client session with the
// checks on its answers, and the closed loop and the feedback epilogue.

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/query_client.h"
#include "serving.h"
#include "spans.h"
#include "storage/catalog.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);

/// What every session of a run shares. Read-only during the load, except
/// `marks`, which only the one session that sends feedback touches.
struct Context {
  WorkloadSpec spec;
  bool traced = false;
  std::vector<size_t> pattern_steps;  // per PatternSet() entry
  std::vector<Op> sequence;
  std::vector<hmmm::ShotId> probes;
  std::vector<std::vector<double>> probe_features;
  /// The archive as the benchmark generated it (global shot ids).
  const hmmm::VideoCatalog* catalog = nullptr;
  /// First global video of each serving shard (one entry when unsharded).
  std::vector<hmmm::VideoId> shard_begin = {0};
  /// MarkPositive calls sent so far, per serving shard.
  std::vector<uint64_t> marks;

  int ShardOfVideo(hmmm::VideoId video) const;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
};

/// Everything one or more sessions measured.
struct LoadResult {
  std::map<std::string, Tally> ops;  // by operation type
  std::vector<double> query_ms;
  std::vector<double> qbe_ms;
  std::vector<double> mark_ms;
  std::vector<double> train_ms;        // marks that triggered a round
  std::vector<double> after_train_ms;  // first query after each round
  uint64_t completed = 0;
  uint64_t retries = 0;
  std::string check_error;  // the first failed output check
  std::string op_error;     // the first failed operation
  SpanFold fold;
  double window_s = 0.0;

  /// The operation counts, retries and check verdicts of `other`.
  void MergeAccounting(const LoadResult& other);
  void Check(const std::string& error);
};

/// The serving processes of one launch: hmmm_serverd alone, or shards
/// behind hmmm_coordd.
struct Deployment {
  std::vector<std::unique_ptr<ServingProcess>> servers;
  std::unique_ptr<ServingProcess> coordinator;

  uint16_t front_port() const;
  std::vector<const ServingProcess*> processes() const;
  void Stop();
};

/// Launches the workload's serving processes and waits for the first
/// successful answer to the most popular pattern. *setup_s is the time
/// from the first spawn to that answer.
hmmm::StatusOr<Deployment> Launch(const Context& context, const std::string& bin_dir,
                                  const std::string& work_dir, int launch, double* setup_s);

/// One connection's client plus the checks on what it receives.
class Session {
 public:
  Session(Context* context, uint16_t port, LoadResult* out);

  /// Latencies run from the call to the decoded response.
  std::optional<hmmm::TemporalQueryResponse> Query(int pattern, double* latency_ms);
  std::optional<std::vector<hmmm::QbeResult>> Qbe(int probe, double* latency_ms);
  /// Marks `pattern` positive; true when the mark completed a training
  /// round on its shard.
  std::optional<bool> Mark(const hmmm::RetrievedPattern& pattern, double* latency_ms);

  /// One operation of the sequence, recorded into the load result.
  void Run(const Op& op);
  /// Query, mark its top result, and after a completed round query once
  /// more (the first query under the new model).
  void FeedbackCycle(int pattern);

  void Finish();

 private:
  Tally& Count(const char* type);

  Context* context_;
  hmmm::QueryClient client_;
  LoadResult* out_;
};

/// Closed loop: one connection runs whole blocks of the sequence back to
/// back until `seconds` have passed (one block when `seconds` is 0).
LoadResult RunClosedLoop(Context* context, uint16_t port, double seconds);

/// Sequential query+mark cycles on one connection.
LoadResult RunFeedbackCycles(Context* context, uint16_t port, int cycles);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
