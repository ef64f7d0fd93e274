// Tests for the BSP (bulk-synchronous) consistency mode of GraphTrainer.

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "flat/graphflat.h"
#include "trainer/trainer.h"

namespace agl::trainer {
namespace {

struct Prepared {
  data::Dataset dataset;
  data::FeatureSplits splits;
};

Prepared MakeCase() {
  data::UugLikeOptions opts;
  opts.num_nodes = 240;
  opts.feature_dim = 8;
  opts.train_size = 128;
  opts.val_size = 40;
  opts.test_size = 40;
  Prepared p;
  p.dataset = data::MakeUugLike(opts);
  flat::GraphFlatConfig fc;
  fc.hops = 1;
  auto features =
      flat::RunGraphFlatInMemory(fc, p.dataset.nodes, p.dataset.edges);
  AGL_CHECK(features.ok());
  p.splits = data::SplitFeatures(std::move(features).value(), p.dataset);
  return p;
}

TrainerConfig BaseConfig(const Prepared& p, int workers) {
  TrainerConfig config;
  config.model.type = gnn::ModelType::kGcn;
  config.model.num_layers = 1;
  config.model.in_dim = p.dataset.feature_dim;
  config.model.hidden_dim = 8;
  config.model.out_dim = 2;
  config.model.dropout = 0.f;
  config.task = TaskKind::kBinaryAuc;
  config.num_workers = workers;
  config.batch_size = 16;
  config.epochs = 4;
  config.sync_mode = SyncMode::kBsp;
  return config;
}

TEST(BspTrainerTest, LearnsAboveChance) {
  Prepared p = MakeCase();
  auto report = GraphTrainer(BaseConfig(p, 3)).Train(p.splits.train,
                                                     p.splits.val);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->best_val_metric, 0.6);
}

TEST(BspTrainerTest, DeterministicAcrossRuns) {
  // BSP has no asynchronous races: two runs with identical config produce
  // identical loss trajectories even with multiple workers.
  Prepared p = MakeCase();
  TrainerConfig config = BaseConfig(p, 4);
  auto a = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  auto b = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->epochs.size(), b->epochs.size());
  for (std::size_t i = 0; i < a->epochs.size(); ++i) {
    EXPECT_EQ(a->epochs[i].mean_train_loss, b->epochs[i].mean_train_loss)
        << "epoch " << i;
  }
  for (const auto& [key, value] : a->final_state) {
    EXPECT_TRUE(b->final_state.at(key).AllClose(value, 0.f)) << key;
  }
}

TEST(BspTrainerTest, MatchesAsyncWithOneWorker) {
  // With a single worker there is nothing to synchronize: BSP and async
  // follow the same trajectory.
  Prepared p = MakeCase();
  TrainerConfig bsp = BaseConfig(p, 1);
  TrainerConfig async = BaseConfig(p, 1);
  async.sync_mode = SyncMode::kAsync;
  auto a = GraphTrainer(bsp).Train(p.splits.train, p.splits.val);
  auto b = GraphTrainer(async).Train(p.splits.train, p.splits.val);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->epochs.size(), b->epochs.size());
  for (std::size_t i = 0; i < a->epochs.size(); ++i) {
    EXPECT_NEAR(a->epochs[i].mean_train_loss, b->epochs[i].mean_train_loss,
                1e-6)
        << "epoch " << i;
  }
}

TEST(BspTrainerTest, ConvergesToSameLevelAsAsync) {
  Prepared p = MakeCase();
  TrainerConfig bsp = BaseConfig(p, 4);
  TrainerConfig async = BaseConfig(p, 4);
  async.sync_mode = SyncMode::kAsync;
  auto a = GraphTrainer(bsp).Train(p.splits.train, p.splits.val);
  auto b = GraphTrainer(async).Train(p.splits.train, p.splits.val);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a->best_val_metric, b->best_val_metric, 0.15);
}

TEST(BspTrainerTest, ReportsPsTime) {
  // Every lock-step round pulls a snapshot and pushes the averaged
  // gradient, so each epoch spends measurable time at the PS.
  Prepared p = MakeCase();
  auto report = GraphTrainer(BaseConfig(p, 3)).Train(p.splits.train, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const EpochRecord& e : report->epochs) {
    EXPECT_GT(e.comm_seconds, 0) << "epoch " << e.epoch;
  }
}

TEST(BspTrainerTest, UnevenPartitionsHandled) {
  // 5 workers over 128 features -> ragged partitions; later rounds run
  // with fewer contributors and the gradient average must not divide by
  // the idle workers.
  Prepared p = MakeCase();
  TrainerConfig config = BaseConfig(p, 5);
  config.batch_size = 10;
  auto report = GraphTrainer(config).Train(p.splits.train, p.splits.val);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->best_val_metric, 0.55);
}

}  // namespace
}  // namespace agl::trainer
