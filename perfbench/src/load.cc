#include "load.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "checker.h"
#include "observability/trace_codec.h"

namespace perfbench {
namespace {

constexpr std::chrono::seconds kStartTimeout{120};

Clock::time_point After(Clock::time_point origin, double seconds) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

/// The temporal queries of the sequence, in order (the queries whose top
/// results the feedback epilogue marks).
std::vector<int> TemporalPatterns(const Context& context) {
  std::vector<int> patterns;
  for (const Op& op : context.sequence) {
    if (!op.qbe) patterns.push_back(op.pattern);
  }
  return patterns;
}

}  // namespace

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

int Context::ShardOfVideo(hmmm::VideoId video) const {
  const auto it = std::upper_bound(shard_begin.begin(), shard_begin.end(), video);
  return static_cast<int>(it - shard_begin.begin()) - 1;
}

void LoadResult::MergeAccounting(const LoadResult& other) {
  for (const auto& [type, tally] : other.ops) {
    Tally& mine = ops[type];
    mine.attempted += tally.attempted;
    mine.failed += tally.failed;
    mine.degraded += tally.degraded;
  }
  retries += other.retries;
  if (check_error.empty()) check_error = other.check_error;
  if (op_error.empty()) op_error = other.op_error;
}

void LoadResult::Check(const std::string& error) {
  if (check_error.empty()) check_error = error;
}

uint16_t Deployment::front_port() const {
  return coordinator != nullptr ? coordinator->port() : servers.front()->port();
}

std::vector<const ServingProcess*> Deployment::processes() const {
  std::vector<const ServingProcess*> all;
  for (const auto& server : servers) all.push_back(server.get());
  if (coordinator != nullptr) all.push_back(coordinator.get());
  return all;
}

void Deployment::Stop() {
  if (coordinator != nullptr) coordinator->Stop();
  for (auto& server : servers) server->Stop();
}

hmmm::StatusOr<Deployment> Launch(const Context& context, const std::string& bin_dir,
                                  const std::string& work_dir, int launch, double* setup_s) {
  const WorkloadSpec& spec = context.spec;
  const std::string tag = std::to_string(launch);
  Deployment deployment;
  const auto start = Clock::now();
  const int servers = std::max(1, spec.shards);
  for (int s = 0; s < servers; ++s) {
    const std::string snapshot = spec.shards > 0
                                     ? work_dir + "/shard" + std::to_string(s) + ".hmms"
                                     : work_dir + "/global.hmms";
    const std::vector<std::string> argv = {bin_dir + "/hmmm/hmmm_serverd", "--snapshot",
                                           snapshot, "--port", "0", "--cache-entries", "0"};
    HMMM_ASSIGN_OR_RETURN(
        std::unique_ptr<ServingProcess> server,
        ServingProcess::Spawn(argv, work_dir + "/serverd" + std::to_string(s) + "-" + tag + ".log"));
    deployment.servers.push_back(std::move(server));
  }
  for (auto& server : deployment.servers) {
    HMMM_RETURN_IF_ERROR(server->AwaitListening(kStartTimeout));
  }
  if (spec.shards > 0) {
    std::vector<std::string> argv = {bin_dir + "/hmmm_coordd", "--shard-map",
                                     work_dir + "/shards.map", "--port", "0"};
    for (const auto& server : deployment.servers) {
      argv.push_back("--shard");
      argv.push_back(server->endpoint());
    }
    HMMM_ASSIGN_OR_RETURN(deployment.coordinator,
                          ServingProcess::Spawn(argv, work_dir + "/coordd-" + tag + ".log"));
    HMMM_RETURN_IF_ERROR(deployment.coordinator->AwaitListening(kStartTimeout));
  }
  hmmm::QueryClientOptions options;
  options.port = deployment.front_port();
  hmmm::QueryClient client(options);
  hmmm::TemporalQueryRequest request;
  request.text = PatternSet().front();
  for (;;) {
    if (client.TemporalQuery(request).ok()) break;
    if (Clock::now() - start > kStartTimeout) {
      return hmmm::Status::IOError("no successful answer after launch");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  *setup_s = std::chrono::duration<double>(Clock::now() - start).count();
  return deployment;
}

Session::Session(Context* context, uint16_t port, LoadResult* out)
    : context_(context),
      client_([port] {
        hmmm::QueryClientOptions options;
        options.port = port;
        return options;
      }()),
      out_(out) {}

Tally& Session::Count(const char* type) { return out_->ops[type]; }

std::optional<hmmm::TemporalQueryResponse> Session::Query(int pattern, double* latency_ms) {
  hmmm::TemporalQueryRequest request;
  request.text = PatternSet()[static_cast<size_t>(pattern)];
  request.want_stats = context_->traced;
  request.want_trace = context_->traced;
  Tally& tally = Count("temporal_query");
  ++tally.attempted;
  const auto start = Clock::now();
  hmmm::StatusOr<hmmm::TemporalQueryResponse> response = client_.TemporalQuery(request);
  *latency_ms = MsBetween(start, Clock::now());
  if (!response.ok()) {
    ++tally.failed;
    if (out_->op_error.empty()) out_->op_error = "temporal_query: " + response.status().ToString();
    return std::nullopt;
  }
  ++out_->completed;
  if (response->degraded) ++tally.degraded;
  out_->Check(CheckRanking(response->results, *context_->catalog,
                           context_->pattern_steps[static_cast<size_t>(pattern)], kMaxResults));
  if (context_->traced) {
    hmmm::StatusOr<std::vector<hmmm::TraceSpan>> spans =
        hmmm::DeserializeSpans(response->trace_blob);
    if (spans.ok() && !spans->empty()) {
      out_->fold.Fold(*spans);
    } else {
      out_->Check("a traced query returned no decodable span forest");
    }
  }
  return std::move(response).value();
}

std::optional<std::vector<hmmm::QbeResult>> Session::Qbe(int probe, double* latency_ms) {
  hmmm::QbeRequest request;
  request.features = context_->probe_features[static_cast<size_t>(probe)];
  request.max_results = kMaxResults;
  request.want_trace = context_->traced;
  Tally& tally = Count("query_by_example");
  ++tally.attempted;
  const auto start = Clock::now();
  hmmm::StatusOr<hmmm::QbeResponse> response = client_.QueryByExample(request);
  *latency_ms = MsBetween(start, Clock::now());
  if (!response.ok()) {
    ++tally.failed;
    if (out_->op_error.empty()) out_->op_error = "query_by_example: " + response.status().ToString();
    return std::nullopt;
  }
  ++out_->completed;
  out_->Check(CheckQbe(response->results, context_->probes[static_cast<size_t>(probe)],
                       kMaxResults));
  return std::move(response->results);
}

std::optional<bool> Session::Mark(const hmmm::RetrievedPattern& pattern, double* latency_ms) {
  hmmm::MarkPositiveRequest request;
  request.pattern = pattern;
  Tally& tally = Count("mark_positive");
  ++tally.attempted;
  const auto start = Clock::now();
  hmmm::StatusOr<hmmm::MarkPositiveResponse> response = client_.MarkPositive(request);
  *latency_ms = MsBetween(start, Clock::now());
  if (!response.ok()) {
    ++tally.failed;
    if (out_->op_error.empty()) out_->op_error = "mark_positive: " + response.status().ToString();
    return std::nullopt;
  }
  ++out_->completed;
  uint64_t& marks = context_->marks[static_cast<size_t>(context_->ShardOfVideo(pattern.video))];
  ++marks;
  out_->Check(CheckTrainingRounds(response->training_rounds, marks, kFeedbackThreshold));
  return marks % kFeedbackThreshold == 0;
}

void Session::Run(const Op& op) {
  double latency_ms = 0.0;
  if (op.qbe) {
    if (Qbe(op.probe, &latency_ms)) out_->qbe_ms.push_back(latency_ms);
  } else if (Query(op.pattern, &latency_ms)) {
    out_->query_ms.push_back(latency_ms);
  }
}

void Session::FeedbackCycle(int pattern) {
  double latency_ms = 0.0;
  std::optional<hmmm::TemporalQueryResponse> response = Query(pattern, &latency_ms);
  if (!response) return;
  if (response->results.empty()) {
    Tally& tally = Count("mark_positive");
    ++tally.attempted;
    ++tally.failed;
    if (out_->op_error.empty()) out_->op_error = "mark_positive: the query returned no result";
    return;
  }
  std::optional<bool> trained = Mark(response->results.front(), &latency_ms);
  if (!trained) return;
  out_->mark_ms.push_back(latency_ms);
  if (!*trained) return;
  out_->train_ms.push_back(latency_ms);
  if (Query(pattern, &latency_ms)) out_->after_train_ms.push_back(latency_ms);
}

void Session::Finish() { out_->retries += client_.retries_performed(); }

LoadResult RunClosedLoop(Context* context, uint16_t port, double seconds) {
  LoadResult out;
  Session session(context, port, &out);
  const auto start = Clock::now();
  const auto deadline = After(start, seconds);
  size_t at = 0;
  do {
    for (int i = 0; i < kBlockOps; ++i) {
      session.Run(context->sequence[at]);
      at = (at + 1) % context->sequence.size();
    }
  } while (Clock::now() < deadline);
  session.Finish();
  out.window_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

LoadResult RunFeedbackCycles(Context* context, uint16_t port, int cycles) {
  LoadResult out;
  Session session(context, port, &out);
  const std::vector<int> patterns = TemporalPatterns(*context);
  for (int k = 0; k < cycles; ++k) {
    session.FeedbackCycle(patterns[static_cast<size_t>(k) % patterns.size()]);
  }
  session.Finish();
  return out;
}

}  // namespace perfbench
