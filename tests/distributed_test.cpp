// Multi-process runtime suite: the driver's process-promoted jobs must be
// byte-identical to their in-process twins, and its classified-retry
// supervision must recover bit-exactly from worker SIGKILLs.
//
//   * GraphFlat / analytics across S in {1, 2, 4, 7} shard processes
//     produce the same DFS dataset bytes / SerializeValues as the
//     threaded runs;
//   * TrainProcesses reproduces GraphTrainer::Train bit-for-bit for kBsp
//     and kSsp at bound 0 (the wire PS runs both as SSP);
//   * a worker killed by SIGKILL mid-epoch (an injected crash failpoint
//     armed only in first attempts becomes a real `raise(SIGKILL)`) is
//     relaunched and the job's final output is unchanged;
//   * TrainProcesses runs GraphTrainer's epoch loop: per-epoch validation
//     metrics, `patience` early stop, `-epoch-N` checkpoints and an
//     `initial_state` warm start come out the same as the threaded run;
//   * a worker-reported non-retryable error fails the job without a
//     relaunch, and a failed job leaves no "<job_prefix>." dataset behind;
//   * LocalDfs honors its concurrency contract: peer processes publishing
//     different datasets under concurrent Opens (each of which sweeps
//     stale scratch) never corrupt one another.
//
// This binary spawns copies of ITSELF as the driver's workers, so main()
// is custom: RunWorkerIfSpawned must run before gtest sees argv.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analytics/programs.h"
#include "analytics/vertex_program.h"
#include "common/subprocess.h"
#include "data/dataset.h"
#include "driver/driver.h"
#include "flat/graphflat.h"
#include "mr/local_dfs.h"
#include "nn/state_io.h"
#include "testing/graph_gen.h"
#include "trainer/trainer.h"

namespace agl::driver {

/// Re-exec'd writer mode (see main below): peer processes publishing
/// DIFFERENT datasets while the parent keeps re-Opening the root. Open's
/// stale-scratch sweep must skip the live peers' in-flight publishes, so
/// every dataset lands complete and checksummed.
constexpr const char* kDfsWriterArgv1 = "__dfs_writer";

std::vector<std::string> WriterPayload(int id) {
  std::vector<std::string> records;
  records.reserve(300);
  for (int r = 0; r < 300; ++r) {
    records.push_back("writer-" + std::to_string(id) + "-record-" +
                      std::to_string(r) + "-" + std::string(64, 'a' + id % 26));
  }
  return records;
}

int RunDfsWriter(const std::string& root, int id) {
  auto dfs = mr::LocalDfs::Open(root);
  if (!dfs.ok()) return 1;
  const std::vector<std::string> records = WriterPayload(id);
  for (int round = 0; round < 8; ++round) {
    if (!dfs->WriteDataset("peer" + std::to_string(id), records, 4).ok()) {
      return 1;
    }
  }
  return 0;
}

namespace {

using testing::GeneratedGraph;
using testing::GraphGenOptions;
using testing::MakeGraph;

bool Heavy() { return std::getenv("AGL_DISTRIBUTED_HEAVY") != nullptr; }

/// The quick matrix exercises 1 (degenerate), a divisor-free count, and a
/// power of two; the heavy sweep adds the ISSUE's full set.
std::vector<int> ShardCounts() {
  return Heavy() ? std::vector<int>{1, 2, 4, 7} : std::vector<int>{1, 4, 7};
}

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("agl_distributed_" + std::to_string(::getpid())))
                .string();
    auto dfs = mr::LocalDfs::Open(root_ + "/coord");
    ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
    coord_ = std::make_unique<mr::LocalDfs>(std::move(*dfs));
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  DriverOptions Options(const std::string& prefix) {
    DriverOptions options;
    options.dfs = coord_.get();
    options.job_prefix = prefix;
    return options;
  }

  agl::Result<mr::LocalDfs> OutDfs() {
    return mr::LocalDfs::Open(root_ + "/out");
  }

  /// Coordination datasets a job left under "<prefix>.".
  std::vector<std::string> JobLeftovers(const std::string& prefix) {
    std::vector<std::string> left;
    for (const std::string& name : coord_->ListDatasets()) {
      if (name.rfind(prefix + ".", 0) == 0) left.push_back(name);
    }
    return left;
  }

  std::string root_;
  std::unique_ptr<mr::LocalDfs> coord_;
};

GraphGenOptions TestGraph(uint64_t seed) {
  GraphGenOptions opts;
  opts.topology = GraphGenOptions::Topology::kPowerLaw;
  opts.num_nodes = 90;
  opts.attach_edges = 3;
  opts.node_feature_dim = 5;
  opts.seed = seed;
  return opts;
}

// --- GraphFlat --------------------------------------------------------------

TEST_F(DistributedTest, FlatProcessesMatchInProcessAcrossShardCounts) {
  GeneratedGraph g = MakeGraph(TestGraph(11));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  for (int shards : ShardCounts()) {
    flat::GraphFlatConfig config;
    config.hops = 2;
    config.num_shards = shards;
    config.job.num_workers = 3;

    auto in_proc =
        flat::RunGraphFlat(config, g.nodes, g.edges, &*out, "flat_thread");
    ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
    DriverStats stats;
    auto proc = RunGraphFlatProcesses(Options("flat"), config, g.nodes,
                                      g.edges, &*out, "flat_proc", &stats);
    ASSERT_TRUE(proc.ok()) << "S=" << shards << ": "
                           << proc.status().ToString();

    EXPECT_EQ(in_proc->num_features, proc->num_features) << "S=" << shards;
    auto a = out->ReadDataset("flat_thread");
    auto b = out->ReadDataset("flat_proc");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(*a == *b) << "dataset bytes diverged at S=" << shards;
    EXPECT_EQ(stats.spawns, shards);
    EXPECT_EQ(stats.clean_exits, shards);
    EXPECT_EQ(stats.restarts, 0);
  }
}

TEST_F(DistributedTest, FlatShardSigkillRecoversBitExact) {
  GeneratedGraph g = MakeGraph(TestGraph(12));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  flat::GraphFlatConfig config;
  config.hops = 2;
  config.num_shards = 3;
  config.job.num_workers = 2;

  auto clean = RunGraphFlatProcesses(Options("flat_clean"), config, g.nodes,
                                     g.edges, &*out, "flat_clean");
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Every shard's first attempt dies by SIGKILL on its third map task; the
  // relaunches recompute and republish idempotently while the surviving
  // peers keep polling the exchange.
  DriverOptions chaos = Options("flat_chaos");
  chaos.first_attempt_env = {"AGL_FAILPOINTS=mr.map=crash@3x1"};
  DriverStats stats;
  auto result = RunGraphFlatProcesses(chaos, config, g.nodes, g.edges, &*out,
                                      "flat_chaos", &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.restarts, 0);
  EXPECT_GT(stats.signal_exits, 0);

  auto a = out->ReadDataset("flat_clean");
  auto b = out->ReadDataset("flat_chaos");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
}

TEST_F(DistributedTest, FlatShardErrorFailsAndDropsJobDatasets) {
  GeneratedGraph g = MakeGraph(TestGraph(15));
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  flat::GraphFlatConfig config;
  config.hops = 2;
  config.job.num_workers = 2;

  // One shard, so no peer is left polling the exchange for it: kInternal
  // is not retryable, the worker reports it and the job fails at once.
  DriverOptions options = Options("flat_fatal");
  options.worker_env = {"AGL_FAILPOINTS=mr.map=error(Internal,1)x1"};
  DriverStats stats;
  auto result = RunGraphFlatProcesses(options, config, g.nodes, g.edges,
                                      &*out, "flat_fatal", &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(JobLeftovers("flat_fatal"), std::vector<std::string>{});
}

// --- Analytics --------------------------------------------------------------

TEST_F(DistributedTest, AnalyticsProcessesMatchInProcessAcrossShardCounts) {
  GeneratedGraph g = MakeGraph(TestGraph(13));
  analytics::PageRankProgram oracle(0.85, 1e-10);
  ProgramSpec spec;
  spec.name = "pagerank";

  for (int shards : ShardCounts()) {
    analytics::AnalyticsConfig config;
    config.num_shards = shards;
    config.job.num_workers = 2;

    auto in_proc =
        analytics::RunVertexProgram(config, oracle, g.nodes, g.edges);
    ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
    DriverStats stats;
    auto proc = RunAnalyticsProcesses(Options("pr"), config, spec, g.nodes,
                                      g.edges, &stats);
    ASSERT_TRUE(proc.ok()) << "S=" << shards << ": "
                           << proc.status().ToString();

    EXPECT_TRUE(in_proc->SerializeValues() == proc->SerializeValues())
        << "values diverged at S=" << shards;
    EXPECT_EQ(in_proc->stats.supersteps, proc->stats.supersteps);
    EXPECT_EQ(in_proc->stats.converged, proc->stats.converged);
    EXPECT_EQ(stats.clean_exits, shards);
  }
}

TEST_F(DistributedTest, AnalyticsShardSigkillRecoversBitExact) {
  GeneratedGraph g = MakeGraph(TestGraph(14));
  analytics::AnalyticsConfig config;
  config.num_shards = 3;
  config.job.num_workers = 2;
  ProgramSpec spec;
  spec.name = "cc";

  auto clean =
      RunAnalyticsProcesses(Options("cc_clean"), config, spec, g.nodes,
                            g.edges);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  DriverOptions chaos = Options("cc_chaos");
  chaos.first_attempt_env = {"AGL_FAILPOINTS=mr.map=crash@2x1"};
  DriverStats stats;
  auto result = RunAnalyticsProcesses(chaos, config, spec, g.nodes, g.edges,
                                      &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.restarts, 0);
  EXPECT_TRUE(clean->SerializeValues() == result->SerializeValues());
}

// --- Trainer ----------------------------------------------------------------

struct TrainCase {
  std::vector<subgraph::GraphFeature> train;
  std::vector<subgraph::GraphFeature> val;
  trainer::TrainerConfig config;
};

TrainCase MakeTrainCase(int workers, trainer::SyncMode mode, int staleness) {
  data::UugLikeOptions opts;
  opts.num_nodes = 160;
  opts.feature_dim = 6;
  opts.train_size = 72;
  opts.val_size = 30;
  opts.test_size = 30;
  data::Dataset ds = data::MakeUugLike(opts);
  flat::GraphFlatConfig fc;
  fc.hops = 1;
  auto features = flat::RunGraphFlatInMemory(fc, ds.nodes, ds.edges);
  AGL_CHECK(features.ok());
  data::FeatureSplits splits =
      data::SplitFeatures(std::move(features).value(), ds);

  TrainCase c;
  c.train = std::move(splits.train);
  c.val = std::move(splits.val);
  c.config.model.type = gnn::ModelType::kGcn;
  c.config.model.num_layers = 1;
  c.config.model.in_dim = opts.feature_dim;
  c.config.model.hidden_dim = 8;
  c.config.model.out_dim = 2;
  c.config.model.dropout = 0.f;
  c.config.task = trainer::TaskKind::kBinaryAuc;
  c.config.num_workers = workers;
  c.config.batch_size = 16;
  c.config.epochs = 3;
  c.config.eval_every = 1;
  c.config.sync_mode = mode;
  c.config.staleness_bound = staleness;
  return c;
}

void ExpectSameTraining(const trainer::TrainReport& a,
                        const trainer::TrainReport& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].mean_train_loss, b.epochs[i].mean_train_loss)
        << "epoch " << i;
    const double va = a.epochs[i].val_metric;
    const double vb = b.epochs[i].val_metric;
    EXPECT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)))
        << "epoch " << i << " val " << va << " vs " << vb;
  }
  EXPECT_EQ(a.best_val_metric, b.best_val_metric);
  EXPECT_TRUE(nn::SerializeStateDict(a.final_state) ==
              nn::SerializeStateDict(b.final_state))
      << "final state dicts diverged";
}

TEST_F(DistributedTest, TrainProcessesMatchInProcessBsp) {
  for (int workers : {1, 3}) {
    TrainCase c = MakeTrainCase(workers, trainer::SyncMode::kBsp, 0);
    auto in_proc = trainer::GraphTrainer(c.config).Train(c.train, c.val);
    ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
    DriverStats stats;
    auto proc = TrainProcesses(Options("bsp"), c.config, c.train, c.val,
                               &stats);
    ASSERT_TRUE(proc.ok()) << "W=" << workers << ": "
                           << proc.status().ToString();
    ExpectSameTraining(*in_proc, *proc);
    EXPECT_EQ(stats.restarts, 0);
    EXPECT_GT(stats.ps_transport.requests, 0);  // the wire PS carried it
  }
}

TEST_F(DistributedTest, TrainProcessesMatchInProcessSspBoundZero) {
  TrainCase c = MakeTrainCase(3, trainer::SyncMode::kSsp, 0);
  auto in_proc = trainer::GraphTrainer(c.config).Train(c.train, c.val);
  ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
  auto proc = TrainProcesses(Options("ssp0"), c.config, c.train, c.val);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  ExpectSameTraining(*in_proc, *proc);
}

TEST_F(DistributedTest, TrainerSigkillMidEpochRecoversBitExact) {
  TrainCase c = MakeTrainCase(3, trainer::SyncMode::kBsp, 0);
  auto clean = TrainProcesses(Options("t_clean"), c.config, c.train, c.val);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Each epoch's first-attempt workers die by SIGKILL on their second
  // step; the driver cancels the SSP epoch, restores the epoch-start PS
  // snapshot (values + Adam moments), and replays the epoch clean.
  DriverOptions chaos = Options("t_chaos");
  chaos.first_attempt_env = {"AGL_FAILPOINTS=trainer.step=crash@2x1"};
  DriverStats stats;
  auto result = TrainProcesses(chaos, c.config, c.train, c.val, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.restarts, 0);
  EXPECT_GT(stats.signal_exits, 0);
  ExpectSameTraining(*clean, *result);
}

TEST_F(DistributedTest, NonRetryableWorkerErrorFailsWithoutRelaunch) {
  TrainCase c = MakeTrainCase(2, trainer::SyncMode::kBsp, 0);
  DriverOptions options = Options("t_fatal");
  options.first_attempt_env = {
      "AGL_FAILPOINTS=trainer.step=error(Internal,1)x1"};
  DriverStats stats;
  auto result = TrainProcesses(options, c.config, c.train, c.val, &stats);
  ASSERT_FALSE(result.ok());
  // The worker's own reported status wins over its cancelled peers'
  // kAborted collateral, and kInternal is not in the retryable set.
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_EQ(stats.restarts, 0);
  // The meta, the error reports and the serialized training set go too.
  EXPECT_EQ(JobLeftovers("t_fatal"), std::vector<std::string>{});
}

TEST_F(DistributedTest, TrainProcessesMatchInProcessEpochLoopFeatures) {
  TrainCase c = MakeTrainCase(3, trainer::SyncMode::kBsp, 0);
  auto warm = trainer::GraphTrainer(c.config).Train(c.train, c.val);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());

  // Warm start from a trained state, stop at the first evaluation that
  // does not improve, and checkpoint every epoch.
  c.config.initial_state = warm->final_state;
  c.config.epochs = 8;
  c.config.patience = 1;
  c.config.checkpoint_dfs = &*out;
  c.config.checkpoint_prefix = "thread";
  auto in_proc = trainer::GraphTrainer(c.config).Train(c.train, c.val);
  ASSERT_TRUE(in_proc.ok()) << in_proc.status().ToString();
  c.config.checkpoint_prefix = "proc";
  auto proc = TrainProcesses(Options("loop"), c.config, c.train, c.val);
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  ExpectSameTraining(*in_proc, *proc);
  const std::size_t ran = in_proc->epochs.size();
  EXPECT_GT(ran, 1u) << "too few epochs to compare checkpoints";
  EXPECT_LT(ran, static_cast<std::size_t>(c.config.epochs))
      << "patience never stopped the run";
  for (std::size_t e = 0; e < ran; ++e) {
    auto a = out->ReadDataset("thread-epoch-" + std::to_string(e));
    auto b = out->ReadDataset("proc-epoch-" + std::to_string(e));
    ASSERT_TRUE(a.ok() && b.ok()) << "epoch " << e;
    EXPECT_TRUE(*a == *b) << "checkpoint bytes diverged at epoch " << e;
  }
  EXPECT_FALSE(out->DatasetExists("proc-epoch-" + std::to_string(ran)));
}

TEST_F(DistributedTest, TrainProcessesRejectsUnsupportedModes) {
  TrainCase c = MakeTrainCase(2, trainer::SyncMode::kAsync, 0);
  auto async = TrainProcesses(Options("t_async"), c.config, c.train, c.val);
  EXPECT_EQ(async.status().code(), StatusCode::kInvalidArgument);

  TrainCase mid = MakeTrainCase(2, trainer::SyncMode::kBsp, 0);
  mid.config.checkpoint_dfs = coord_.get();
  mid.config.checkpoint_every_batches = 4;
  auto resumable =
      TrainProcesses(Options("t_mid"), mid.config, mid.train, mid.val);
  EXPECT_EQ(resumable.status().code(), StatusCode::kInvalidArgument);
}

// --- LocalDfs concurrency contract ------------------------------------------

TEST_F(DistributedTest, LocalDfsConcurrentOpensNeverSweepLivePeers) {
  const std::string root = root_ + "/dfs_contract";
  auto self = common::SelfExecutable();
  ASSERT_TRUE(self.ok());

  constexpr int kWriters = 4;
  std::vector<pid_t> pids;
  for (int id = 0; id < kWriters; ++id) {
    auto pid = common::Spawn(
        {*self, kDfsWriterArgv1, root, std::to_string(id)});
    ASSERT_TRUE(pid.ok()) << pid.status().ToString();
    pids.push_back(*pid);
  }
  // Each Open sweeps scratch directories; racing it against the live
  // writers is the point of the test.
  for (int i = 0; i < 50; ++i) {
    auto dfs = mr::LocalDfs::Open(root);
    ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
  }
  for (pid_t pid : pids) {
    auto exit = common::Wait(pid);
    ASSERT_TRUE(exit.ok());
    EXPECT_TRUE(exit->clean()) << "writer exited "
                               << (exit->signaled ? "signal " : "code ")
                               << exit->value;
  }
  auto dfs = mr::LocalDfs::Open(root);
  ASSERT_TRUE(dfs.ok());
  for (int id = 0; id < kWriters; ++id) {
    auto records = dfs->ReadDataset("peer" + std::to_string(id));
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    // Round-robin parts permute read-back order; compare as sorted sets.
    std::vector<std::string> got = std::move(*records);
    std::vector<std::string> want = WriterPayload(id);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_TRUE(got == want) << "peer " << id;
  }
}

// --- heavy sweep ------------------------------------------------------------

/// Nightly-style widening behind AGL_DISTRIBUTED_HEAVY (the CTest entry
/// sets it): more seeds x the full shard set for both shard pipelines.
TEST_F(DistributedTest, DistributedSweepTest) {
  if (!Heavy()) GTEST_SKIP() << "set AGL_DISTRIBUTED_HEAVY=1 to run";
  auto out = OutDfs();
  ASSERT_TRUE(out.ok());
  for (uint64_t seed : {21u, 22u, 23u}) {
    GeneratedGraph g = MakeGraph(TestGraph(seed));
    for (int shards : {2, 4, 7}) {
      flat::GraphFlatConfig fc;
      fc.hops = 2;
      fc.num_shards = shards;
      fc.job.num_workers = 2;
      auto in_proc =
          flat::RunGraphFlat(fc, g.nodes, g.edges, &*out, "sweep_thread");
      ASSERT_TRUE(in_proc.ok());
      auto proc = RunGraphFlatProcesses(Options("sweep"), fc, g.nodes,
                                        g.edges, &*out, "sweep_proc");
      ASSERT_TRUE(proc.ok()) << proc.status().ToString();
      auto a = out->ReadDataset("sweep_thread");
      auto b = out->ReadDataset("sweep_proc");
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_TRUE(*a == *b) << "seed " << seed << " S=" << shards;

      analytics::AnalyticsConfig ac;
      ac.num_shards = shards;
      ac.job.num_workers = 2;
      analytics::PageRankProgram oracle(0.85, 1e-10);
      ProgramSpec spec;
      spec.name = "pagerank";
      auto ref = analytics::RunVertexProgram(ac, oracle, g.nodes, g.edges);
      ASSERT_TRUE(ref.ok());
      auto pr = RunAnalyticsProcesses(Options("sweep_pr"), ac, spec, g.nodes,
                                      g.edges);
      ASSERT_TRUE(pr.ok()) << pr.status().ToString();
      EXPECT_TRUE(ref->SerializeValues() == pr->SerializeValues())
          << "seed " << seed << " S=" << shards;
    }
  }
}

}  // namespace
}  // namespace agl::driver

/// Custom main: this binary is its own worker pool. The driver hook must
/// see argv before gtest (a spawned worker never reaches the test runner),
/// and the DFS-contract writers re-enter here too.
int main(int argc, char** argv) {
  if (auto code = agl::driver::RunWorkerIfSpawned(argc, argv)) return *code;
  if (argc == 4 &&
      std::string(argv[1]) == agl::driver::kDfsWriterArgv1) {
    return agl::driver::RunDfsWriter(argv[2], std::atoi(argv[3]));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
