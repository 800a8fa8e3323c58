// hmmm_perfbench: the two phases of one benchmark run (perfbench/run.py
// drives both).
//
//   hmmm_perfbench build --workload W --seed N --work-dir DIR
//     Generates the catalog from the seed, ingests it, builds the model
//     and freezes the HMMS snapshot(s) (and shard map) the daemons will
//     serve; writes the timings to DIR/build.txt.
//
//   hmmm_perfbench load --workload W --seed N --seconds S --trace 0|1
//                       --bin-dir DIR --work-dir DIR
//     Launches the daemons on those files, checks their answers, drives
//     the workload's load and prints the result as one JSON line.

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "api/catalog_partition.h"
#include "api/video_database.h"
#include "checker.h"
#include "load.h"
#include "media/feature_level_generator.h"
#include "query/translator.h"
#include "retrieval/traversal.h"
#include "server/shard_map.h"
#include "server/wire_protocol.h"
#include "snapshot/snapshot_writer.h"

namespace perfbench {
namespace {

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--bin-dir") {
      args->bin_dir = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (args->command == "build" || args->command == "load") && !args->workload.empty() &&
         !args->work_dir.empty() && args->seconds > 0.0;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "hmmm_perfbench: %s\n", what.c_str());
  return 1;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double FileMb(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) / (1 << 20) : 0.0;
}

// -- build ------------------------------------------------------------------

int RunBuild(const WorkloadSpec& spec, uint64_t seed, const std::string& dir) {
  hmmm::FeatureLevelConfig config = hmmm::SoccerFeatureLevelDefaults(seed);
  config.num_videos = kVideos;
  hmmm::GeneratedCorpus corpus = hmmm::FeatureLevelGenerator(config).Generate();

  auto start = Clock::now();
  hmmm::StatusOr<hmmm::VideoCatalog> catalog = hmmm::VideoCatalog::FromGeneratedCorpus(corpus);
  if (!catalog.ok()) return Fail("ingest: " + catalog.status().ToString());
  const double ingest_s = SecondsSince(start);
  corpus = {};  // the 100x archive needs the memory

  start = Clock::now();
  hmmm::StatusOr<hmmm::VideoDatabase> db = hmmm::VideoDatabase::Create(std::move(*catalog));
  if (!db.ok()) return Fail("model build: " + db.status().ToString());
  const double model_s = SecondsSince(start);

  start = Clock::now();
  const std::string global = dir + "/global.hmms";
  hmmm::Status status = db->WriteSnapshot(global);
  if (!status.ok()) return Fail("snapshot write: " + status.ToString());
  double write_s = SecondsSince(start);
  double snapshot_mb = FileMb(global);

  double partition_s = 0.0;
  if (spec.shards > 0) {
    start = Clock::now();
    hmmm::StatusOr<std::vector<hmmm::CatalogShard>> shards =
        hmmm::PartitionForServing(db->catalog(), db->model(), spec.shards);
    if (!shards.ok()) return Fail("partition: " + shards.status().ToString());
    status = hmmm::SaveShardMap(hmmm::ShardMapFromPartition(*shards, db->catalog()),
                                dir + "/shards.map");
    if (!status.ok()) return Fail("shard map: " + status.ToString());
    partition_s = SecondsSince(start);
    start = Clock::now();
    snapshot_mb = 0.0;  // the shards serve the slices, not the global file
    for (size_t s = 0; s < shards->size(); ++s) {
      const hmmm::CatalogShard& shard = (*shards)[s];
      const std::string path = dir + "/shard" + std::to_string(s) + ".hmms";
      status = hmmm::WriteSnapshot(shard.model, shard.catalog, path);
      if (!status.ok()) return Fail("shard snapshot write: " + status.ToString());
      snapshot_mb += FileMb(path);
    }
    write_s += SecondsSince(start);
  }
  std::ofstream out(dir + "/build.txt");
  out.precision(17);
  out << "build_s " << ingest_s + model_s + write_s + partition_s << "\n"
      << "storage.ingest_s " << ingest_s << "\n"
      << "core.model_build_s " << model_s << "\n"
      << "snapshot.write_s " << write_s << "\n"
      << "api.partition_s " << partition_s << "\n"
      << "snapshot_mb " << snapshot_mb << "\n";
  return out.good() ? 0 : Fail("cannot write build.txt");
}

// -- load -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::map<std::string, double> ReadBuildFile(const std::string& path) {
  std::map<std::string, double> values;
  std::ifstream in(path);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) values[key] = value;
  return values;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

/// One Metrics scrape per serving process, in Deployment::processes()
/// order.
std::vector<Scrape> ScrapeAll(const Deployment& deployment, LoadResult* accounting) {
  std::vector<Scrape> scrapes;
  for (const ServingProcess* process : deployment.processes()) {
    hmmm::QueryClientOptions options;
    options.port = process->port();
    hmmm::QueryClient client(options);
    Tally& tally = accounting->ops["metrics"];
    ++tally.attempted;
    hmmm::StatusOr<hmmm::MetricsResponse> response = client.Metrics();
    if (!response.ok()) {
      ++tally.failed;
      if (accounting->op_error.empty()) accounting->op_error = "metrics: " + response.status().ToString();
      scrapes.emplace_back();
      continue;
    }
    scrapes.push_back(Scrape::Parse(response->prometheus_text));
  }
  return scrapes;
}

/// Model version of every hmmm_serverd process, asked directly.
std::vector<uint64_t> ModelVersions(const Deployment& deployment, LoadResult* accounting) {
  std::vector<uint64_t> versions;
  for (const auto& server : deployment.servers) {
    hmmm::QueryClientOptions options;
    options.port = server->port();
    hmmm::QueryClient client(options);
    Tally& tally = accounting->ops["health"];
    ++tally.attempted;
    hmmm::StatusOr<hmmm::HealthResponse> health = client.Health();
    if (!health.ok()) {
      ++tally.failed;
      if (accounting->op_error.empty()) accounting->op_error = "health: " + health.status().ToString();
      versions.push_back(0);
      continue;
    }
    versions.push_back(health->model_version);
  }
  return versions;
}

/// Median over `reps` repetitions of the Zipf-weighted mean time, in
/// microseconds, of `call(pattern)`.
template <typename Call>
double WeightedCallUs(int reps, int batch, const Call& call) {
  const std::vector<double> weights = ZipfWeights();
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    double total = 0.0;
    for (size_t p = 0; p < weights.size(); ++p) {
      const auto start = Clock::now();
      for (int i = 0; i < batch; ++i) call(p);
      total += weights[p] * MsBetween(start, Clock::now()) * 1000.0 / batch;
    }
    samples.push_back(total);
  }
  return Median(samples);
}

int RunLoad(const Args& args, const WorkloadSpec& spec) {
  const std::string global = args.work_dir + "/global.hmms";
  const std::map<std::string, double> build = ReadBuildFile(args.work_dir + "/build.txt");
  if (build.empty()) return Fail("no build.txt in " + args.work_dir);

  // The in-process reference: the same snapshot, opened as a library.
  hmmm::VideoDatabaseOptions db_options;
  db_options.traversal.num_threads = 1;
  db_options.query_cache_entries = 0;
  std::vector<double> open_ms;
  hmmm::StatusOr<hmmm::VideoDatabase> db = hmmm::Status::Internal("not opened");
  const int opens = args.trace ? 3 : 1;
  for (int i = 0; i < opens; ++i) {
    const auto start = Clock::now();
    db = hmmm::VideoDatabase::OpenSnapshot(global, db_options);
    open_ms.push_back(MsBetween(start, Clock::now()));
    if (!db.ok()) return Fail("in-process snapshot open: " + db.status().ToString());
  }
  const hmmm::VideoCatalog& catalog = db->catalog();

  Context context;
  context.spec = spec;
  context.catalog = &catalog;
  std::vector<hmmm::TemporalPattern> compiled;
  for (const std::string& text : PatternSet()) {
    hmmm::StatusOr<hmmm::TemporalPattern> pattern = hmmm::CompileQuery(text, catalog.vocabulary());
    if (!pattern.ok()) return Fail("pattern '" + text + "': " + pattern.status().ToString());
    context.pattern_steps.push_back(pattern->size());
    compiled.push_back(std::move(*pattern));
  }
  const uint64_t schedule_seed = ScheduleSeed(args.seed);
  context.sequence = DrawSequence(schedule_seed);
  context.probes = DrawProbes(catalog, schedule_seed);
  for (hmmm::ShotId shot : context.probes) context.probe_features.push_back(catalog.raw_features_of(shot));
  if (spec.shards > 0) {
    hmmm::StatusOr<hmmm::ShardMap> map = hmmm::LoadShardMap(args.work_dir + "/shards.map");
    if (!map.ok()) return Fail("shard map: " + map.status().ToString());
    context.shard_begin.clear();
    for (const hmmm::ShardMapEntry& entry : map->shards) context.shard_begin.push_back(entry.video_begin);
  }
  context.marks.assign(context.shard_begin.size(), 0);

  // Set-up: launch to first answer, several times; the last launch serves.
  std::vector<double> setup_s;
  Deployment deployment;
  const int launches = args.trace ? 1 : kSetupLaunches;
  for (int l = 0; l < launches; ++l) {
    double seconds = 0.0;
    hmmm::StatusOr<Deployment> launched = Launch(context, args.bin_dir, args.work_dir, l, &seconds);
    if (!launched.ok()) return Fail("launch: " + launched.status().ToString());
    setup_s.push_back(seconds);
    if (l + 1 < launches) {
      launched->Stop();
    } else {
      deployment = std::move(*launched);
    }
  }
  const uint16_t port = deployment.front_port();
  LoadResult totals;  // operation accounting over every phase
  const std::vector<uint64_t> versions_before = ModelVersions(deployment, &totals);

  // Reference pass: served answers against the in-process ones, as raw
  // doubles.
  LoadResult reference;
  {
    Session session(&context, port, &reference);
    for (int p = 0; p < kIdentityPatterns; ++p) {
      double latency_ms = 0.0;
      std::optional<hmmm::TemporalQueryResponse> served = session.Query(p, &latency_ms);
      hmmm::StatusOr<std::vector<hmmm::RetrievedPattern>> local = db->Query(PatternSet()[p]);
      if (!local.ok()) {
        reference.Check("in-process query failed: " + local.status().ToString());
      } else if (served) {
        const std::string diff = CompareRankings(served->results, *local);
        if (!diff.empty()) reference.Check("served vs in-process '" + PatternSet()[p] + "': " + diff);
      }
    }
    for (size_t probe = 0; probe < context.probes.size(); ++probe) {
      double latency_ms = 0.0;
      std::optional<std::vector<hmmm::QbeResult>> served =
          session.Qbe(static_cast<int>(probe), &latency_ms);
      hmmm::QbeOptions qbe_options;
      qbe_options.max_results = kMaxResults;
      hmmm::StatusOr<std::vector<hmmm::QbeResult>> local =
          db->QueryByExample(context.probe_features[probe], qbe_options);
      if (served && local.ok()) {
        const std::string diff = CompareQbe(*served, *local);
        if (!diff.empty()) reference.Check("served vs in-process query by example: " + diff);
      } else if (!local.ok()) {
        reference.Check("in-process query by example failed: " + local.status().ToString());
      }
    }
    session.Finish();
  }
  totals.MergeAccounting(reference);
  // One block, so the connection and the mapped pages are warm when the
  // measured window opens.
  totals.MergeAccounting(RunClosedLoop(&context, port, 0.0));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const LoadResult window = RunClosedLoop(&context, port, args.seconds);
    totals.MergeAccounting(window);
    double rss_mb = 0.0;
    for (const ServingProcess* process : deployment.processes()) rss_mb += process->PeakRssMb();
    const LoadResult feedback = RunFeedbackCycles(&context, port, kEpilogueCycles);
    totals.MergeAccounting(feedback);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"build_s", build.at("build_s"), "s"},
        {"query_p50_ms", Median(window.query_ms), "ms"},
        {"query_tail_ms", Percentile(window.query_ms, spec.tail_percentile), "ms"},
        {"qbe_p50_ms", Median(window.qbe_ms), "ms"},
        {"throughput_qps", static_cast<double>(window.completed) / window.window_s, "req/s"},
        {"train_round_ms", Median(feedback.train_ms), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"snapshot_mb", build.at("snapshot_mb"), "MB"},
    };
    std::printf("samples query=%zu qbe=%zu train_rounds=%zu tail=p%g (%zu beyond)\n",
                window.query_ms.size(), window.qbe_ms.size(), feedback.train_ms.size(),
                spec.tail_percentile,
                static_cast<size_t>(window.query_ms.size() * (100.0 - spec.tail_percentile) / 100.0));
  } else {
    // Phase A, untraced and bracketed by Metrics scrapes; phase B, traced.
    const std::vector<Scrape> before = ScrapeAll(deployment, &totals);
    const LoadResult untraced = RunClosedLoop(&context, port, args.seconds / 2);
    const std::vector<Scrape> after = ScrapeAll(deployment, &totals);
    context.traced = true;
    const LoadResult traced = RunClosedLoop(&context, port, args.seconds / 2);
    totals.MergeAccounting(untraced);
    totals.MergeAccounting(traced);

    const std::vector<const ServingProcess*> processes = deployment.processes();
    Scrape servers;  // window deltas summed over the hmmm_serverd processes
    Scrape coordinator;
    for (size_t i = 0; i < processes.size(); ++i) {
      const Scrape delta = Scrape::Delta(after[i], before[i]);
      if (i < deployment.servers.size()) {
        servers.Add(delta);
      } else {
        coordinator = delta;
      }
    }
    double mapped_mb = 0.0;
    for (const ServingProcess* process : processes) mapped_mb += process->MappedSnapshotMb();

    context.traced = false;
    const LoadResult feedback = RunFeedbackCycles(&context, port, kEpilogueCycles);
    totals.MergeAccounting(feedback);

    // Work counters, Zipf-weighted per query, from in-process answers
    // (identical to the served ones, which the reference pass checked).
    const std::vector<double> weights = ZipfWeights();
    std::map<std::string, double> work;
    std::vector<std::string> payloads;
    for (size_t p = 0; p < weights.size(); ++p) {
      hmmm::RetrievalStats s;
      hmmm::TemporalQueryResponse response;
      hmmm::StatusOr<std::vector<hmmm::RetrievedPattern>> local = db->Query(PatternSet()[p], &s);
      if (!local.ok()) return Fail("in-process query: " + local.status().ToString());
      response.results = std::move(*local);
      payloads.push_back(hmmm::EncodeTemporalQueryResponse(response));
      const double w = weights[p];
      work["videos_considered"] += w * s.videos_considered;
      work["states_visited"] += w * s.states_visited;
      work["sim_evaluations"] += w * s.sim_evaluations;
      work["sim_memo_hits"] += w * s.sim_memo_hits;
      work["heap_pops"] += w * s.heap_pops;
      work["grid_cells_skipped"] += w * s.grid_cells_skipped;
      work["candidates_scored"] += w * s.candidates_scored;
      work["beam_pruned"] += w * s.beam_pruned;
    }

    // Direct calls into the layers, timed here.
    volatile size_t sink = 0;
    const double compile_us = WeightedCallUs(50, 20, [&](size_t p) {
      sink = sink + hmmm::CompileQuery(PatternSet()[p], catalog.vocabulary())->size();
    });
    const double codec_us = WeightedCallUs(50, 20, [&](size_t p) {
      hmmm::TemporalQueryRequest request;
      request.text = PatternSet()[p];
      sink = sink + hmmm::EncodeTemporalQueryRequest(request).size() +
             hmmm::DecodeTemporalQueryResponse(payloads[p])->results.size();
    });
    hmmm::TraversalOptions traversal_options;
    traversal_options.num_threads = 1;
    const hmmm::HmmmTraversal traversal(db->model(), catalog, traversal_options);
    auto start = Clock::now();
    sink = sink + traversal.event_index().num_videos();
    const double index_build_ms = MsBetween(start, Clock::now());
    std::vector<double> qbe_ms;
    for (const std::vector<double>& features : context.probe_features) {
      hmmm::QbeOptions qbe_options;
      qbe_options.max_results = kMaxResults;
      start = Clock::now();
      sink = sink + db->QueryByExample(features, qbe_options)->size();
      qbe_ms.push_back(MsBetween(start, Clock::now()));
    }
    double step2_direct_ms = 0.0;
    for (size_t p = 0; p < compiled.size(); ++p) {
      start = Clock::now();
      sink = sink + traversal.VideoOrder(compiled[p]).size();
      step2_direct_ms += weights[p] * MsBetween(start, Clock::now());
    }

    const double client_p50 = Median(untraced.query_ms);
    const double worker_p50 = HistogramMedian(servers.Buckets("hmmm_server_request_latency_ms"));
    const double requests = servers.Sum("hmmm_server_requests_total");
    const double hits = servers.Sum("hmmm_query_cache_hits_total");
    const double lookups = hits + servers.Sum("hmmm_query_cache_misses_total");
    const double queries = servers.Sum("hmmm_queries_total");
    const SpanFold& fold = traced.fold;
    metrics = {
        {"client.codec_us", codec_us, "us"},
        {"client.retries", static_cast<double>(totals.retries), "count"},
        {"server.worker_p50_ms", worker_p50, "ms"},
        {"server.worker_mean_ms",
         servers.Sum("hmmm_server_request_latency_ms_sum") /
             std::max(1.0, servers.Sum("hmmm_server_request_latency_ms_count")),
         "ms"},
        {"server.outside_worker_ms", client_p50 - worker_p50, "ms"},
        {"server.bytes_per_request",
         (servers.Sum("hmmm_server_bytes_read_total") + servers.Sum("hmmm_server_bytes_written_total")) /
             std::max(1.0, requests),
         "B"},
        {"api.query_p50_ms", HistogramMedian(servers.Buckets("hmmm_query_latency_ms")), "ms"},
        {"api.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio"},
        {"api.cache_hits", hits, "count"},
        {"api.cache_lookups", lookups, "count"},
        {"api.admission_rejected", servers.Sum("hmmm_admission_rejected_total"), "count"},
        {"api.pool_busy_ms_per_query", servers.Sum("hmmm_pool_busy_ms") / std::max(1.0, queries), "ms"},
        {"query.compile_us", compile_us, "us"},
        {"retrieval.step2_ms", fold.MeanSelfMs("step2_video_order"), "ms"},
        {"retrieval.plan_build_ms", fold.MeanSelfMs("query_plan_build"), "ms"},
        {"retrieval.step7_ms", fold.MeanSelfMs("step7_video_fanout"), "ms"},
        {"retrieval.walk_ms", fold.MeanSelfMs("steps3_5_walk"), "ms"},
        {"retrieval.eq15_ms", fold.MeanSelfMs("step6_eq15_score"), "ms"},
        {"retrieval.merge_ms", fold.MeanSelfMs("step8_9_merge_rank"), "ms"},
        {"retrieval.step2_direct_ms", step2_direct_ms, "ms"},
        {"retrieval.index_build_ms", index_build_ms, "ms"},
        {"retrieval.qbe_ms", Median(qbe_ms), "ms"},
        {"retrieval.videos_considered", work["videos_considered"], "count"},
        {"retrieval.states_visited", work["states_visited"], "count"},
        {"retrieval.sim_evaluations", work["sim_evaluations"], "count"},
        {"retrieval.sim_memo_hits", work["sim_memo_hits"], "count"},
        {"retrieval.heap_pops", work["heap_pops"], "count"},
        {"retrieval.grid_cells_skipped", work["grid_cells_skipped"], "count"},
        {"retrieval.candidates_scored", work["candidates_scored"], "count"},
        {"retrieval.beam_pruned", work["beam_pruned"], "count"},
        {"feedback.rounds", static_cast<double>(feedback.train_ms.size()), "count"},
        {"feedback.mark_p50_ms", Median(feedback.mark_ms), "ms"},
        {"feedback.query_after_train_ms", Median(feedback.after_train_ms), "ms"},
        {"snapshot.open_ms", Median(open_ms), "ms"},
        {"snapshot.mapped_mb", mapped_mb, "MB"},
        {"snapshot.write_s", build.at("snapshot.write_s"), "s"},
        {"storage.ingest_s", build.at("storage.ingest_s"), "s"},
        {"core.model_build_s", build.at("core.model_build_s"), "s"},
        {"api.partition_s", build.at("api.partition_s"), "s"},
        {"coordinator.fanout_ms", Median(fold.fanout_ms), "ms"},
        {"coordinator.shard_rtt_ms",
         HistogramMedian(coordinator.Buckets("hmmm_coordinator_endpoint_latency_ms")), "ms"},
        {"coordinator.self_ms", Median(fold.coordinator_self_ms), "ms"},
        {"observability.trace_overhead_ms", Median(traced.query_ms) - client_p50, "ms"},
    };
  }

  // Feedback accounting: kVersionStepsPerRound model-version steps per
  // training round.
  const std::vector<uint64_t> versions_after = ModelVersions(deployment, &totals);
  for (size_t s = 0; s < versions_after.size() && s < versions_before.size(); ++s) {
    totals.Check(CheckModelVersion(versions_before[s], versions_after[s],
                                   context.marks[s] / kFeedbackThreshold,
                                   kVersionStepsPerRound));
  }
  deployment.Stop();

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const auto& [type, tally] : totals.ops) {
    std::printf("op %-18s attempted=%llu failed=%llu degraded=%llu\n", type.c_str(),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.degraded));
    attempted += tally.attempted;
    failed += tally.failed;
  }
  for (const Metric& metric : metrics) {
    std::printf("metric %-34s %14.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  if (!totals.op_error.empty()) std::printf("first failed operation: %s\n", totals.op_error.c_str());
  if (!totals.check_error.empty()) std::printf("CHECK FAILED: %s\n", totals.check_error.c_str());

  std::string json = "{\"correct\": ";
  json += totals.check_error.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s build --workload W --seed N --work-dir DIR\n"
                 "       %s load --workload W --seed N --seconds S --trace 0|1 "
                 "--bin-dir DIR --work-dir DIR\n",
                 argv[0], argv[0]);
    return 2;
  }
  perfbench::WorkloadSpec spec;
  if (!perfbench::FindWorkload(args.workload, &spec)) {
    return perfbench::Fail("unknown workload " + args.workload);
  }
  if (args.command == "build") return perfbench::RunBuild(spec, args.seed, args.work_dir);
  if (args.bin_dir.empty()) return perfbench::Fail("load needs --bin-dir");
  return perfbench::RunLoad(args, spec);
}
