#include "driver/driver.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/mutex.h"
#include "common/subprocess.h"
#include "common/timer.h"
#include "io/codec.h"
#include "ps/client.h"
#include "ps/parameter_server.h"
#include "ps/remote.h"

namespace agl::driver {

namespace {

using common::ExitStatus;
using trainer::internal::WorkerResult;

/// Marker argv[1] of a spawned worker process.
constexpr char kWorkerArgv1[] = "__agl_worker";
constexpr char kRoleFlat[] = "flat";
constexpr char kRoleAnalytics[] = "analytics";
constexpr char kRoleTrain[] = "train";

// Every coordination dataset of a job lives under "<prefix>." so one
// CleanupPrefix sweep removes the whole job (including the exchange's
// buckets under "<prefix>.ex.").
std::string MetaName(const std::string& prefix) { return prefix + ".meta"; }
std::string SliceName(const std::string& prefix, int shard) {
  return prefix + ".in.s" + std::to_string(shard);
}
std::string ExchangePrefix(const std::string& prefix) { return prefix + ".ex"; }
std::string OutName(const std::string& prefix, int shard) {
  return prefix + ".out.s" + std::to_string(shard);
}
std::string ShardErrName(const std::string& prefix, int shard) {
  return prefix + ".err.s" + std::to_string(shard);
}
std::string FeatName(const std::string& prefix) { return prefix + ".feat"; }
std::string ResName(const std::string& prefix, int epoch, int worker) {
  return prefix + ".res.e" + std::to_string(epoch) + ".w" +
         std::to_string(worker);
}
std::string TrainErrName(const std::string& prefix, int epoch, int worker) {
  return prefix + ".err.e" + std::to_string(epoch) + ".w" +
         std::to_string(worker);
}

void MergeStats(DriverStats* into, const DriverStats& from) {
  into->spawns += from.spawns;
  into->restarts += from.restarts;
  into->clean_exits += from.clean_exits;
  into->signal_exits += from.signal_exits;
  into->error_exits += from.error_exits;
  into->exchange.Accumulate(from.exchange);
  into->ps_transport.connections += from.ps_transport.connections;
  into->ps_transport.requests += from.ps_transport.requests;
  into->ps_transport.bytes_received += from.ps_transport.bytes_received;
  into->ps_transport.bytes_sent += from.ps_transport.bytes_sent;
  into->ps_transport.failed_requests += from.ps_transport.failed_requests;
}

/// Reads the status a failed worker left behind; nullopt when it died
/// before reporting (or the record is unreadable).
std::optional<agl::Status> ReadReportedError(mr::LocalDfs* dfs,
                                             const std::string& dataset) {
  auto records = dfs->ReadDataset(dataset);
  if (!records.ok() || records->size() != 1) return std::nullopt;
  io::BufferReader r((*records)[0]);
  agl::Status reported;
  if (!GetStatus(&r, &reported).ok() || reported.ok()) return std::nullopt;
  return reported;
}

// --- worker-process role bodies ---------------------------------------------

/// The worker half of a process-mode shard job (GraphFlat, analytics):
/// reads the job meta (decoded by `decode`) and this shard's table slice,
/// runs `body` over a DfsExchange, and publishes the records `body`
/// returns plus the stats blob it fills as the shard's output dataset.
template <typename Meta, typename Body>
agl::Status RunShardWorker(const std::string& root, const std::string& prefix,
                           int shard,
                           agl::Result<Meta> (*decode)(const std::string&),
                           const Body& body) {
  AGL_ASSIGN_OR_RETURN(mr::LocalDfs dfs, mr::LocalDfs::Open(root));
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> meta_records,
                       dfs.ReadDataset(MetaName(prefix)));
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> slice_records,
                       dfs.ReadDataset(SliceName(prefix, shard)));
  if (meta_records.size() != 1 || slice_records.size() != 1) {
    return agl::Status::Corruption(
        "shard job meta and table slice must hold exactly 1 record each");
  }
  AGL_ASSIGN_OR_RETURN(const Meta meta, decode(meta_records[0]));
  std::vector<flat::NodeRecord> nodes;
  std::vector<flat::EdgeRecord> edges;
  AGL_RETURN_IF_ERROR(DecodeTableSlice(slice_records[0], &nodes, &edges));

  flat::DfsExchange::Options xopts;
  xopts.poll_interval_ms = meta.exchange_poll_ms;
  xopts.timeout_ms = meta.exchange_timeout_ms;
  flat::DfsExchange exchange(
      &dfs, ExchangePrefix(prefix),
      flat::ShardPlan(std::max(1, meta.config.num_shards)), xopts);
  std::string stats_blob;
  AGL_ASSIGN_OR_RETURN(const std::vector<mr::KeyValue> records,
                       body(meta, nodes, edges, &exchange, &stats_blob));
  return dfs.WriteDataset(
      OutName(prefix, shard),
      {flat::SerializeExchangeRecords(records), std::move(stats_blob)},
      /*num_parts=*/1);
}

agl::Status RunFlatShardWorker(const std::string& root,
                               const std::string& prefix, int shard) {
  return RunShardWorker(
      root, prefix, shard, DecodeFlatJobMeta,
      [shard](const FlatJobMeta& meta,
              const std::vector<flat::NodeRecord>& nodes,
              const std::vector<flat::EdgeRecord>& edges,
              flat::Exchange* exchange, std::string* stats_blob)
          -> agl::Result<std::vector<mr::KeyValue>> {
        mr::JobStats job_stats;
        AGL_ASSIGN_OR_RETURN(
            std::vector<mr::KeyValue> records,
            flat::RunFlatShard(meta.config, shard, nodes, edges,
                               meta.node_feature_dim, meta.edge_feature_dim,
                               exchange, &job_stats));
        io::BufferWriter w;
        PutJobStats(&w, job_stats);
        PutExchangeStats(&w, exchange->stats());
        *stats_blob = w.Release();
        return records;
      });
}

agl::Status RunAnalyticsShardWorker(const std::string& root,
                                    const std::string& prefix, int shard) {
  return RunShardWorker(
      root, prefix, shard, DecodeAnalyticsJobMeta,
      [shard](const AnalyticsJobMeta& meta,
              const std::vector<flat::NodeRecord>& nodes,
              const std::vector<flat::EdgeRecord>& edges,
              flat::Exchange* exchange, std::string* stats_blob)
          -> agl::Result<std::vector<mr::KeyValue>> {
        AGL_ASSIGN_OR_RETURN(std::unique_ptr<analytics::VertexProgram> program,
                             MakeProgram(meta.program));
        analytics::AnalyticsStats stats;
        AGL_ASSIGN_OR_RETURN(
            std::vector<mr::KeyValue> records,
            analytics::RunAnalyticsShard(meta.config, *program, shard, nodes,
                                         edges, meta.num_vertices, exchange,
                                         &stats));
        stats.exchange = exchange->stats();
        *stats_blob = EncodeAnalyticsStats(stats);
        return records;
      });
}

agl::Status RunTrainWorker(const std::string& root, const std::string& prefix,
                           int worker, int epoch, int port) {
  AGL_ASSIGN_OR_RETURN(mr::LocalDfs dfs, mr::LocalDfs::Open(root));
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> meta_records,
                       dfs.ReadDataset(MetaName(prefix)));
  if (meta_records.size() != 1) {
    return agl::Status::Corruption("train job meta must hold exactly 1 record");
  }
  AGL_ASSIGN_OR_RETURN(const TrainJobMeta meta,
                       DecodeTrainJobMeta(meta_records[0]));
  AGL_ASSIGN_OR_RETURN(std::vector<std::string> feature_records,
                       dfs.ReadDataset(FeatName(prefix)));
  if (static_cast<int64_t>(feature_records.size()) != meta.num_examples) {
    return agl::Status::Corruption("feature dataset size mismatch");
  }
  std::vector<subgraph::GraphFeature> features;
  features.reserve(feature_records.size());
  for (const std::string& record : feature_records) {
    AGL_ASSIGN_OR_RETURN(subgraph::GraphFeature gf,
                         subgraph::GraphFeature::Parse(record));
    features.push_back(std::move(gf));
  }
  const auto partitions =
      trainer::internal::SplitRanges(features.size(), meta.config.num_workers);
  if (static_cast<int>(partitions.size()) != meta.active_workers ||
      worker < 0 || worker >= meta.active_workers) {
    return agl::Status::Internal("train worker partition mismatch");
  }

  ps::RemotePsClient client(port);
  AGL_ASSIGN_OR_RETURN(
      WorkerResult result,
      trainer::internal::RunWorkerEpoch(
          meta.config, std::span<const subgraph::GraphFeature>(features),
          partitions[worker].first, partitions[worker].second, worker, epoch,
          &client));
  // A failed epoch reports through the error dataset (exit 1), never
  // through a result the parent would mistake for progress.
  AGL_RETURN_IF_ERROR(result.status);
  return dfs.WriteDataset(ResName(prefix, epoch, worker),
                          {EncodeWorkerResult(result)}, /*num_parts=*/1);
}

/// Worker epilogue: an injected-crash failpoint becomes a REAL signal
/// death (so the chaos schedule exercises exactly the recovery path an
/// OOM kill would); any other error is reported through `err_dataset` for
/// the supervisor to read and exits 1.
int FinishWorker(const agl::Status& status, const std::string& root,
                 const std::string& err_dataset) {
  if (status.ok()) return 0;
#if !defined(_WIN32)
  if (fail::IsInjectedCrash(status)) ::raise(SIGKILL);
#endif
  auto dfs = mr::LocalDfs::Open(root);
  if (dfs.ok()) {
    io::BufferWriter w;
    PutStatus(&w, status);
    (void)dfs->WriteDataset(err_dataset, {w.Release()}, /*num_parts=*/1);
  }
  std::fprintf(stderr, "agl worker: %s\n", status.ToString().c_str());
  return 1;
}

// --- driver-side supervision ------------------------------------------------

/// Tallies one reaped worker by how it exited.
void CountExit(const ExitStatus& exit, DriverStats* stats, common::Mutex* mu) {
  common::MutexLock lock(mu);
  if (exit.clean()) {
    stats->clean_exits++;
  } else if (exit.signaled) {
    stats->signal_exits++;
  } else {
    stats->error_exits++;
  }
}

/// Runs one shard worker to a clean exit, restarting signal deaths (and
/// retryable worker-reported errors, e.g. an exchange timeout caused by a
/// dead peer) up to the classified-retry budget. Runs concurrently for all
/// shards, hence the guarded stats.
agl::Status SuperviseShard(const DriverOptions& options,
                           const std::vector<std::string>& argv,
                           const std::string& err_dataset,
                           const std::string& what, DriverStats* stats,
                           common::Mutex* mu) {
  for (int attempt = 0;; ++attempt) {
    // A fresh attempt must not inherit a stale error report.
    (void)options.dfs->DropDataset(err_dataset);
    std::vector<std::string> env = options.worker_env;
    if (attempt == 0) {
      env.insert(env.end(), options.first_attempt_env.begin(),
                 options.first_attempt_env.end());
    }
    agl::Status attempt_status;
    auto pid = common::Spawn(argv, env);
    if (pid.ok()) {
      {
        common::MutexLock lock(mu);
        stats->spawns++;
      }
      AGL_ASSIGN_OR_RETURN(const ExitStatus exit, common::Wait(*pid));
      CountExit(exit, stats, mu);
      attempt_status = common::ClassifyExit(exit, what);
      if (attempt_status.ok()) return agl::Status::OK();
      if (!exit.signaled) {
        if (auto reported = ReadReportedError(options.dfs, err_dataset)) {
          attempt_status = *std::move(reported);
        }
        if (!agl::IsRetryableError(attempt_status)) return attempt_status;
      }
    } else {
      // Spawn failure (the driver.spawn failpoint, or fork/exec trouble).
      attempt_status = pid.status();
      if (!agl::IsRetryableError(attempt_status)) return attempt_status;
    }
    if (attempt >= options.max_restarts) return attempt_status;
    {
      common::MutexLock lock(mu);
      stats->restarts++;
    }
  }
}

agl::Status ValidateDriverOptions(const DriverOptions& options) {
  if (options.dfs == nullptr) {
    return agl::Status::InvalidArgument("driver: options.dfs is required");
  }
  if (options.job_prefix.empty()) {
    return agl::Status::InvalidArgument("driver: job_prefix must be non-empty");
  }
  if (options.max_restarts < 0) {
    return agl::Status::InvalidArgument("driver: max_restarts must be >= 0");
  }
  return agl::Status::OK();
}

/// Drops every "<job_prefix>." dataset when a job ends. The success path
/// calls Finish() to surface a cleanup failure; every other exit cleans up
/// on destruction.
class JobCleanup {
 public:
  explicit JobCleanup(const DriverOptions& options) : options_(options) {}
  JobCleanup(const JobCleanup&) = delete;
  JobCleanup& operator=(const JobCleanup&) = delete;
  ~JobCleanup() {
    if (!finished_) (void)Finish();
  }
  agl::Status Finish() {
    finished_ = true;
    return flat::DfsExchange::CleanupPrefix(options_.dfs,
                                            options_.job_prefix);
  }

 private:
  const DriverOptions& options_;
  bool finished_ = false;
};

/// The driver half of a process-mode shard job (GraphFlat, analytics):
/// clears the job's datasets, publishes `meta` and the per-shard table
/// slices, supervises one `role` worker per shard to a clean exit, and
/// returns the shards' output records concatenated in shard order, with
/// each shard's stats blob in `stats_blobs`.
agl::Result<std::vector<mr::KeyValue>> RunShardProcesses(
    const DriverOptions& options, const char* role, int num_shards,
    const std::string& meta, const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges,
    std::vector<std::string>* stats_blobs, DriverStats* stats) {
  const std::string& prefix = options.job_prefix;
  AGL_RETURN_IF_ERROR(flat::DfsExchange::CleanupPrefix(options.dfs, prefix));
  AGL_RETURN_IF_ERROR(
      options.dfs->WriteDataset(MetaName(prefix), {meta}, /*num_parts=*/1));
  const flat::ShardedTables tables =
      flat::ShardRouter{flat::ShardPlan(num_shards)}.PartitionTables(nodes,
                                                                     edges);
  for (int s = 0; s < num_shards; ++s) {
    AGL_RETURN_IF_ERROR(options.dfs->WriteDataset(
        SliceName(prefix, s),
        {EncodeTableSlice(tables.nodes[s], tables.edges[s])},
        /*num_parts=*/1));
  }

  AGL_ASSIGN_OR_RETURN(const std::string self, common::SelfExecutable());
  common::Mutex stats_mu;
  AGL_RETURN_IF_ERROR(flat::ParallelOverShards(num_shards, [&](int s) {
    return SuperviseShard(
        options,
        {self, kWorkerArgv1, role, options.dfs->root(), prefix,
         std::to_string(s)},
        ShardErrName(prefix, s),
        std::string(role) + " shard " + std::to_string(s), stats, &stats_mu);
  }));

  std::vector<mr::KeyValue> records;
  for (int s = 0; s < num_shards; ++s) {
    AGL_ASSIGN_OR_RETURN(std::vector<std::string> out,
                         options.dfs->ReadDataset(OutName(prefix, s)));
    if (out.size() != 2) {
      return agl::Status::Corruption("shard output must hold 2 records");
    }
    AGL_ASSIGN_OR_RETURN(std::vector<mr::KeyValue> shard_records,
                         flat::ParseExchangeRecords(out[0]));
    records.insert(records.end(),
                   std::make_move_iterator(shard_records.begin()),
                   std::make_move_iterator(shard_records.end()));
    stats_blobs->push_back(std::move(out[1]));
  }
  return records;
}

}  // namespace

agl::Result<flat::GraphFlatStats> RunGraphFlatProcesses(
    const DriverOptions& options, const flat::GraphFlatConfig& config,
    const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges, mr::LocalDfs* out_dfs,
    const std::string& dataset, DriverStats* stats) {
  Stopwatch watch;
  AGL_RETURN_IF_ERROR(ValidateDriverOptions(options));
  AGL_RETURN_IF_ERROR(config.Validate());
  if (out_dfs == nullptr) {
    return agl::Status::InvalidArgument("driver: out_dfs is required");
  }
  if (nodes.empty()) {
    return agl::Status::InvalidArgument("GraphFlat: empty node table");
  }
  const int num_shards = std::max(1, config.num_shards);
  FlatJobMeta meta;
  meta.config = config;
  meta.config.num_shards = num_shards;
  meta.node_feature_dim = static_cast<int64_t>(nodes[0].features.size());
  meta.edge_feature_dim =
      edges.empty() ? 0 : static_cast<int64_t>(edges[0].features.size());
  meta.exchange_poll_ms = options.exchange_poll_ms;
  meta.exchange_timeout_ms = options.exchange_timeout_ms;
  JobCleanup cleanup(options);
  DriverStats local;
  std::vector<std::string> stats_blobs;
  AGL_ASSIGN_OR_RETURN(
      std::vector<mr::KeyValue> records,
      RunShardProcesses(options, kRoleFlat, num_shards,
                        EncodeFlatJobMeta(meta), nodes, edges, &stats_blobs,
                        &local));

  flat::GraphFlatStats out_stats;
  for (const std::string& blob : stats_blobs) {
    io::BufferReader r(blob);
    mr::JobStats job_stats;
    flat::ExchangeStats exchange_stats;
    AGL_RETURN_IF_ERROR(GetJobStats(&r, &job_stats));
    AGL_RETURN_IF_ERROR(GetExchangeStats(&r, &exchange_stats));
    out_stats.job_stats.Accumulate(job_stats);
    out_stats.exchange.Accumulate(exchange_stats);
  }
  AGL_RETURN_IF_ERROR(flat::StoreFinalRecords(meta.config, std::move(records),
                                              out_dfs, dataset, &out_stats));
  AGL_RETURN_IF_ERROR(cleanup.Finish());
  out_stats.elapsed_seconds = watch.Seconds();
  local.exchange = out_stats.exchange;
  if (stats != nullptr) MergeStats(stats, local);
  return out_stats;
}

agl::Result<analytics::AnalyticsResult> RunAnalyticsProcesses(
    const DriverOptions& options, const analytics::AnalyticsConfig& config,
    const ProgramSpec& program, const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges, DriverStats* stats) {
  Stopwatch watch;
  AGL_RETURN_IF_ERROR(ValidateDriverOptions(options));
  AGL_RETURN_IF_ERROR(config.Validate());
  AGL_ASSIGN_OR_RETURN(std::unique_ptr<analytics::VertexProgram> prog,
                       MakeProgram(program));
  AGL_ASSIGN_OR_RETURN(std::vector<flat::EdgeRecord> normalized,
                       analytics::NormalizeEdgeTable(*prog, nodes, edges));
  const int num_shards = std::max(1, config.num_shards);
  AnalyticsJobMeta meta;
  meta.config = config;
  meta.config.num_shards = num_shards;
  meta.program = program;
  meta.num_vertices = static_cast<int64_t>(nodes.size());
  meta.exchange_poll_ms = options.exchange_poll_ms;
  meta.exchange_timeout_ms = options.exchange_timeout_ms;
  JobCleanup cleanup(options);
  DriverStats local;
  std::vector<std::string> stats_blobs;
  AGL_ASSIGN_OR_RETURN(
      const std::vector<mr::KeyValue> records,
      RunShardProcesses(options, kRoleAnalytics, num_shards,
                        EncodeAnalyticsJobMeta(meta), nodes, normalized,
                        &stats_blobs, &local));

  analytics::AnalyticsResult result;
  result.stats.num_vertices = static_cast<int64_t>(nodes.size());
  result.stats.num_gather_edges = static_cast<int64_t>(normalized.size());
  AGL_ASSIGN_OR_RETURN(
      result.values,
      analytics::CollectFinalValues(records,
                                    static_cast<int64_t>(nodes.size())));
  // Superstep accounting is AllGather-agreed and identical on every shard;
  // job and exchange counters are per-shard work.
  for (int s = 0; s < num_shards; ++s) {
    AGL_ASSIGN_OR_RETURN(analytics::AnalyticsStats ss,
                         DecodeAnalyticsStats(stats_blobs[s]));
    if (s == 0) {
      result.stats.supersteps = ss.supersteps;
      result.stats.converged = ss.converged;
      result.stats.active_per_round = std::move(ss.active_per_round);
      result.stats.messages_per_round = std::move(ss.messages_per_round);
    }
    result.stats.job_stats.Accumulate(ss.job_stats);
    result.stats.exchange.Accumulate(ss.exchange);
  }
  AGL_RETURN_IF_ERROR(cleanup.Finish());
  result.stats.elapsed_seconds = watch.Seconds();
  local.exchange = result.stats.exchange;
  if (stats != nullptr) MergeStats(stats, local);
  return result;
}

namespace {

/// One spawn-run-reap cycle of a trainer epoch's worker fleet. OK means
/// every worker exited clean and `results` holds their decoded reports;
/// kUnavailable (a signal death somewhere) asks the caller to re-import
/// the epoch snapshot and retry; anything else is fatal.
agl::Status RunTrainEpochAttempt(
    const DriverOptions& options, const std::string& self, int epoch,
    int attempt, int active_workers, int64_t staleness_bound, int port,
    ps::PsClient* client, std::vector<WorkerResult>* results,
    DriverStats* stats, common::Mutex* mu) {
  const std::string& prefix = options.job_prefix;
  for (int w = 0; w < active_workers; ++w) {
    (void)options.dfs->DropDataset(ResName(prefix, epoch, w));
    (void)options.dfs->DropDataset(TrainErrName(prefix, epoch, w));
  }
  AGL_RETURN_IF_ERROR(client->BeginSspEpoch(active_workers, staleness_bound));

  std::vector<pid_t> pids;
  pids.reserve(active_workers);
  agl::Status spawn_status;
  for (int w = 0; w < active_workers; ++w) {
    std::vector<std::string> env = options.worker_env;
    if (attempt == 0) {
      env.insert(env.end(), options.first_attempt_env.begin(),
                 options.first_attempt_env.end());
    }
    auto pid = common::Spawn(
        {self, kWorkerArgv1, kRoleTrain, options.dfs->root(), prefix,
         std::to_string(w), std::to_string(epoch), std::to_string(port)},
        env);
    if (!pid.ok()) {
      spawn_status = pid.status();
      break;
    }
    {
      common::MutexLock lock(mu);
      stats->spawns++;
    }
    pids.push_back(*pid);
  }
  if (!spawn_status.ok()) {
    // Starved of workers (the driver.spawn failpoint, or fork trouble):
    // tear the half-spawned fleet down and let the caller classify.
    (void)client->CancelSsp();
    for (pid_t pid : pids) {
      (void)common::Kill(pid, SIGKILL);
      (void)common::Wait(pid);
    }
    (void)client->EndSspEpoch();
    return spawn_status;
  }

  // One waiter thread per child: a worker parked at the SSP clock gate
  // only unparks after CancelSsp, so a sequential Wait over the fleet
  // could block forever behind a survivor of someone else's death.
  std::vector<ExitStatus> exits(active_workers);
  std::vector<agl::Status> wait_errors(active_workers);
  std::atomic<bool> cancelled{false};
  std::vector<std::thread> waiters;
  waiters.reserve(active_workers);
  for (int w = 0; w < active_workers; ++w) {
    waiters.emplace_back([&, w] {
      auto exit = common::Wait(pids[w]);
      if (!exit.ok()) {
        wait_errors[w] = exit.status();
        if (!cancelled.exchange(true)) (void)client->CancelSsp();
        return;
      }
      exits[w] = *exit;
      // First non-clean exit releases every parked survivor so the whole
      // fleet can be reaped and the epoch retried.
      if (!exit->clean() && !cancelled.exchange(true)) {
        (void)client->CancelSsp();
      }
    });
  }
  for (std::thread& t : waiters) t.join();
  (void)client->EndSspEpoch();

  bool signaled = false;
  for (int w = 0; w < active_workers; ++w) {
    AGL_RETURN_IF_ERROR(wait_errors[w]);
    CountExit(exits[w], stats, mu);
    if (exits[w].signaled) signaled = true;
  }
  if (signaled) {
    return agl::Status::Unavailable(
        "trainer worker killed by signal (epoch " + std::to_string(epoch) +
        ", attempt " + std::to_string(attempt) + ")");
  }
  // Error exits without a signal: surface the root cause, preferring a
  // worker's own report over the kAborted collateral its cancelled peers
  // produce.
  agl::Status first_error;
  for (int w = 0; w < active_workers; ++w) {
    if (exits[w].clean()) continue;
    agl::Status reported = common::ClassifyExit(
        exits[w], "trainer worker " + std::to_string(w));
    if (auto from_dfs =
            ReadReportedError(options.dfs, TrainErrName(prefix, epoch, w))) {
      reported = *std::move(from_dfs);
    }
    if (reported.code() != agl::StatusCode::kAborted) return reported;
    if (first_error.ok()) first_error = reported;
  }
  AGL_RETURN_IF_ERROR(first_error);

  for (int w = 0; w < active_workers; ++w) {
    AGL_ASSIGN_OR_RETURN(std::vector<std::string> records,
                         options.dfs->ReadDataset(ResName(prefix, epoch, w)));
    if (records.size() != 1) {
      return agl::Status::Corruption(
          "worker result must hold exactly 1 record");
    }
    AGL_ASSIGN_OR_RETURN((*results)[w], DecodeWorkerResult(records[0]));
  }
  return agl::Status::OK();
}

}  // namespace

agl::Result<trainer::TrainReport> TrainProcesses(
    const DriverOptions& options, const trainer::TrainerConfig& config,
    std::span<const subgraph::GraphFeature> train,
    std::span<const subgraph::GraphFeature> val, DriverStats* stats) {
  AGL_RETURN_IF_ERROR(ValidateDriverOptions(options));
  AGL_RETURN_IF_ERROR(config.Validate());
  if (train.empty()) {
    return agl::Status::InvalidArgument("empty training set");
  }
  if (config.sync_mode == trainer::SyncMode::kAsync) {
    return agl::Status::InvalidArgument(
        "TrainProcesses: kAsync has no replayable schedule across a process "
        "respawn; use kBsp or kSsp");
  }
  if (config.checkpoint_every_batches > 0 || config.resume) {
    return agl::Status::InvalidArgument(
        "TrainProcesses: mid-epoch checkpoint/resume is in-process only; "
        "recovery here is epoch-grained");
  }

  const std::string& prefix = options.job_prefix;
  JobCleanup cleanup(options);
  AGL_RETURN_IF_ERROR(flat::DfsExchange::CleanupPrefix(options.dfs, prefix));

  const auto partitions =
      trainer::internal::SplitRanges(train.size(), config.num_workers);
  const int active_workers = static_cast<int>(partitions.size());
  // kBsp rides the wire as SSP at bound 0 — proven bit-identical by the
  // consistency suite, and it gives both modes one recovery protocol.
  const int64_t staleness_bound =
      config.sync_mode == trainer::SyncMode::kBsp ? 0 : config.staleness_bound;

  TrainJobMeta meta;
  meta.config = config;
  meta.config.sync_mode = trainer::SyncMode::kSsp;
  meta.config.staleness_bound = staleness_bound;
  meta.config.checkpoint_dfs = nullptr;
  meta.config.initial_state.clear();
  meta.config.verbose = false;
  meta.active_workers = active_workers;
  meta.num_examples = static_cast<int64_t>(train.size());
  AGL_RETURN_IF_ERROR(options.dfs->WriteDataset(
      MetaName(prefix), {EncodeTrainJobMeta(meta)}, /*num_parts=*/1));
  {
    // One part keeps record order == span order, so every worker sees the
    // exact index space the partitioner split.
    std::vector<std::string> features;
    features.reserve(train.size());
    for (const subgraph::GraphFeature& gf : train) {
      features.push_back(gf.Serialize());
    }
    AGL_RETURN_IF_ERROR(options.dfs->WriteDataset(FeatName(prefix), features,
                                                  /*num_parts=*/1));
  }

  // GraphTrainer's epoch loop over a PS the workers reach through `wire`;
  // only the epoch runner is process-specific.
  ps::ParameterServer server(trainer::internal::PsOptions(config));
  ps::PsServer wire(&server);
  AGL_RETURN_IF_ERROR(wire.Start());
  AGL_ASSIGN_OR_RETURN(const std::string self, common::SelfExecutable());
  DriverStats local;
  common::Mutex stats_mu;
  AGL_ASSIGN_OR_RETURN(
      trainer::TrainReport report,
      trainer::internal::RunEpochLoop(
          trainer::GraphTrainer(config), &server, active_workers, val,
          train.size(),
          [&](int epoch, ps::PsClient* client,
              std::vector<WorkerResult>* results,
              const trainer::internal::MidCheckpointEnv* /*ckpt*/)
              -> agl::Status {
            // Epoch-grained recovery point: values + Adam moments as of
            // the epoch start. A worker-epoch is a pure function of
            // (config, seed, epoch, worker) given this state, so a
            // respawned attempt recomputes the identical bytes.
            AGL_ASSIGN_OR_RETURN(const auto snapshot, client->ExportState());
            for (int attempt = 0;; ++attempt) {
              agl::Status st = RunTrainEpochAttempt(
                  options, self, epoch, attempt, active_workers,
                  staleness_bound, wire.port(), client, results, &local,
                  &stats_mu);
              if (st.ok() || !agl::IsRetryableError(st) ||
                  attempt >= options.max_restarts) {
                return st;
              }
              {
                common::MutexLock lock(&stats_mu);
                local.restarts++;
              }
              AGL_RETURN_IF_ERROR(client->ImportState(snapshot));
            }
          }));
  wire.Stop();
  local.ps_transport = wire.transport_stats();
  AGL_RETURN_IF_ERROR(cleanup.Finish());
  if (stats != nullptr) MergeStats(stats, local);
  return report;
}

std::optional<int> RunWorkerIfSpawned(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) != kWorkerArgv1) return std::nullopt;
  auto usage = [](const char* msg) {
    std::fprintf(stderr, "agl worker: %s\n", msg);
    return 2;
  };
  if (argc < 3) return usage("missing role");
  const std::string role = argv[2];
  if (role == kRoleFlat || role == kRoleAnalytics) {
    if (argc != 6) return usage("shard worker wants: role root prefix shard");
    const std::string root = argv[3];
    const std::string prefix = argv[4];
    const int shard = std::atoi(argv[5]);
    agl::Status status =
        role == kRoleFlat ? RunFlatShardWorker(root, prefix, shard)
                          : RunAnalyticsShardWorker(root, prefix, shard);
    return FinishWorker(status, root, ShardErrName(prefix, shard));
  }
  if (role == kRoleTrain) {
    if (argc != 8) {
      return usage("train worker wants: role root prefix worker epoch port");
    }
    const std::string root = argv[3];
    const std::string prefix = argv[4];
    const int worker = std::atoi(argv[5]);
    const int epoch = std::atoi(argv[6]);
    const int port = std::atoi(argv[7]);
    agl::Status status = RunTrainWorker(root, prefix, worker, epoch, port);
    return FinishWorker(status, root, TrainErrName(prefix, epoch, worker));
  }
  return usage("unknown role");
}

}  // namespace agl::driver
