// Exchange contract suite: the guarantees every sharded round pipeline
// (GraphFlat, GraphInfer, analytics) relies on, checked directly on both
// implementations — InMemoryExchange (threads) and DfsExchange (shard
// processes over the LocalDfs) — plus the in-process launcher and the
// checked node-key parsing the per-shard reducers apply to what the
// exchange delivers.
//
// The stress_exchange CTest entry repeats this suite 8x (`ctest -L stress`,
// meant for the TSan leg).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "flat/exchange.h"
#include "flat/graphflat.h"
#include "flat/shard.h"
#include "mr/local_dfs.h"

namespace agl::flat {
namespace {

constexpr int kShards = 4;

using ShardRecords = agl::Result<std::vector<mr::KeyValue>>;

/// Per-source record streams: source `src` emits keys src, src + S, ...,
/// each value naming its (source, position) so order is checkable.
std::vector<std::vector<mr::KeyValue>> SourceStreams(int num_records) {
  std::vector<std::vector<mr::KeyValue>> streams(kShards);
  for (int i = 0; i < num_records; ++i) {
    const int src = i % kShards;
    // Built by appends: GCC 12 misreports `"s" + std::string` (-Wrestrict).
    std::string value = std::to_string(src);
    value += '.';
    value += std::to_string(streams[src].size());
    streams[src].push_back({std::to_string(i), std::move(value)});
  }
  return streams;
}

class ExchangeContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "memory") {
      exchange_ = std::make_unique<InMemoryExchange>(ShardPlan(kShards));
      return;
    }
    static std::atomic<int> next_root{0};
    root_ = (std::filesystem::temp_directory_path() /
             ("agl_exchange_" + std::to_string(::getpid()) + "_" +
              std::to_string(next_root++)))
                .string();
    std::filesystem::remove_all(root_);
    auto dfs = mr::LocalDfs::Open(root_);
    ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
    dfs_ = std::make_unique<mr::LocalDfs>(*std::move(dfs));
    exchange_ = MakeDfsExchange(/*timeout_ms=*/60000);
  }

  void TearDown() override {
    exchange_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  std::unique_ptr<DfsExchange> MakeDfsExchange(int timeout_ms) {
    DfsExchange::Options options;
    options.poll_interval_ms = 1;
    options.timeout_ms = timeout_ms;
    return std::make_unique<DfsExchange>(dfs_.get(), "job", ShardPlan(kShards),
                                         options);
  }

  std::string root_;
  std::unique_ptr<mr::LocalDfs> dfs_;
  std::unique_ptr<Exchange> exchange_;
};

TEST_P(ExchangeContractTest, EveryRecordArrivesAtItsHomeShard) {
  const ShardPlan plan(kShards);
  auto streams = SourceStreams(100);
  for (int src = 0; src < kShards; ++src) {
    ASSERT_TRUE(exchange_->Publish(0, src, streams[src]).ok());
  }
  std::size_t total = 0;
  for (int dst = 0; dst < kShards; ++dst) {
    auto records = exchange_->Collect(0, dst);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    for (const mr::KeyValue& kv : *records) {
      EXPECT_EQ(plan.HomeShard(kv.key), dst) << kv.key;
    }
    total += records->size();
  }
  EXPECT_EQ(total, 100u);
  const ExchangeStats stats = exchange_->stats();
  EXPECT_EQ(stats.publishes, kShards);
  EXPECT_EQ(stats.collects, kShards);
  EXPECT_EQ(stats.records_published, 100);
  EXPECT_EQ(stats.records_collected, 100);
}

TEST_P(ExchangeContractTest, CollectKeepsSourceMajorEmitOrder) {
  const ShardPlan plan(kShards);
  auto streams = SourceStreams(200);
  // Publish in reverse source order: delivery order must not depend on it.
  for (int src = kShards - 1; src >= 0; --src) {
    ASSERT_TRUE(exchange_->Publish(3, src, streams[src]).ok());
  }
  for (int dst = 0; dst < kShards; ++dst) {
    std::vector<mr::KeyValue> expected;
    for (int src = 0; src < kShards; ++src) {
      for (const mr::KeyValue& kv : streams[src]) {
        if (plan.HomeShard(kv.key) == dst) expected.push_back(kv);
      }
    }
    auto records = exchange_->Collect(3, dst);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), expected.size()) << "dst " << dst;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*records)[i].key, expected[i].key);
      EXPECT_EQ((*records)[i].value, expected[i].value);
    }
  }
}

TEST_P(ExchangeContractTest, AbortWakesBlockedCollectAndAllGather) {
  // Shard 0 publishes alone, so both waits below can only end by Abort.
  ASSERT_TRUE(exchange_->Publish(0, 0, {{"1", "x"}}).ok());
  agl::Status collect_status, gather_status;
  std::thread collector([&] {
    collect_status = exchange_->Collect(0, 0).status();
  });
  std::thread gatherer([&] {
    gather_status = exchange_->AllGather("tag", 0, "payload").status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const agl::Status abort = agl::Status::Aborted("peer shard died");
  exchange_->Abort(abort);
  collector.join();
  gatherer.join();
  EXPECT_EQ(collect_status.code(), abort.code());
  EXPECT_EQ(collect_status.message(), abort.message());
  EXPECT_EQ(gather_status.code(), abort.code());
  EXPECT_EQ(gather_status.message(), abort.message());
  // Later calls fail with the first abort status too.
  exchange_->Abort(agl::Status::Internal("second abort is ignored"));
  EXPECT_EQ(exchange_->Publish(1, 0, {}).message(), abort.message());
}

INSTANTIATE_TEST_SUITE_P(Implementations, ExchangeContractTest,
                         ::testing::Values("memory", "dfs"),
                         [](const auto& info) { return info.param; });

TEST(InMemoryExchangeTest, DoublePublishIsFailedPrecondition) {
  InMemoryExchange exchange{ShardPlan(2)};
  ASSERT_TRUE(exchange.Publish(0, 1, {{"7", "a"}}).ok());
  const agl::Status again = exchange.Publish(0, 1, {{"8", "b"}});
  EXPECT_EQ(again.code(), agl::StatusCode::kFailedPrecondition);
  // The first deposit stands; the rejected one left nothing behind.
  ASSERT_TRUE(exchange.Publish(0, 0, {}).ok());
  std::size_t total = 0;
  for (int dst = 0; dst < 2; ++dst) {
    auto records = exchange.Collect(0, dst);
    ASSERT_TRUE(records.ok());
    for (const mr::KeyValue& kv : *records) EXPECT_EQ(kv.value, "a");
    total += records->size();
  }
  EXPECT_EQ(total, 1u);
}

TEST(DfsExchangeTest, MissingPeerMakesCollectUnavailable) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("agl_exchange_timeout_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  auto dfs = mr::LocalDfs::Open(root);
  ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
  DfsExchange::Options options;
  options.poll_interval_ms = 1;
  options.timeout_ms = 50;
  DfsExchange exchange(&*dfs, "job", ShardPlan(2), options);
  ASSERT_TRUE(exchange.Publish(0, 0, {{"1", "x"}}).ok());
  const auto start = std::chrono::steady_clock::now();
  auto records = exchange.Collect(0, 0);  // shard 1 never publishes
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(records.status().code(), agl::StatusCode::kUnavailable);
  EXPECT_LT(waited, std::chrono::seconds(10));
  std::filesystem::remove_all(root);
}

TEST(ExchangeCodecTest, ParseRejectsTruncationAndTrailingBytes) {
  const std::vector<mr::KeyValue> records = {
      {"1", "alpha"}, {"", ""}, {"22", std::string(300, 'z')}};
  const std::string bytes = SerializeExchangeRecords(records);
  auto parsed = ParseExchangeRecords(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*parsed)[i].key, records[i].key);
    EXPECT_EQ((*parsed)[i].value, records[i].value);
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(ParseExchangeRecords(bytes.substr(0, len)).ok())
        << "truncated to " << len << " bytes";
  }
  EXPECT_EQ(ParseExchangeRecords(bytes + "x").status().code(),
            agl::StatusCode::kCorruption);
}

TEST(ShardLauncherTest, ConcatenatesShardOutputsInShardOrder) {
  ExchangeStats stats;
  auto records = RunShardsInProcess(
      3,
      [](int shard, Exchange* exchange) -> ShardRecords {
        AGL_RETURN_IF_ERROR(
            exchange->Publish(0, shard, {{std::to_string(shard), "v"}}));
        AGL_RETURN_IF_ERROR(exchange->Collect(0, shard).status());
        return std::vector<mr::KeyValue>{{"out", std::to_string(shard)}};
      },
      &stats);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  for (int s = 0; s < 3; ++s) EXPECT_EQ((*records)[s].value, std::to_string(s));
  EXPECT_EQ(stats.publishes, 3);
  EXPECT_EQ(stats.records_published, 3);
}

TEST(ShardLauncherTest, FailingShardReleasesPeersParkedAtTheBarrier) {
  // Shard 1 fails before publishing; without the launcher's Abort its
  // peers would wait in Collect forever.
  std::atomic<int> parked{0};
  auto records = RunShardsInProcess(
      3, [&](int shard, Exchange* exchange) -> ShardRecords {
        if (shard == 1) {
          while (parked.load() < 2) std::this_thread::yield();
          return agl::Status::Corruption("shard 1 failed");
        }
        AGL_RETURN_IF_ERROR(exchange->Publish(0, shard, {}));
        parked.fetch_add(1);
        AGL_RETURN_IF_ERROR(exchange->Collect(0, shard).status());
        return std::vector<mr::KeyValue>{};
      });
  EXPECT_EQ(records.status().code(), agl::StatusCode::kCorruption);
  EXPECT_EQ(records.status().message(), "shard 1 failed");
}

TEST(NodeKeyTest, ParsesExactlyTheDecimalIds) {
  for (const char* good : {"0", "7", "1234567890", "18446744073709551615"}) {
    auto id = ParseNodeKey(good);
    ASSERT_TRUE(id.ok()) << good;
    EXPECT_EQ(std::to_string(*id), good);
  }
  for (const char* bad : {"", "abc", "-5", "+5", " 5", "5 ", "12x", "1#2",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_EQ(ParseNodeKey(bad).status().code(), agl::StatusCode::kCorruption)
        << "'" << bad << "'";
  }
}

/// An exchange that accepts every publish and delivers one fixed bucket —
/// a stand-in for a peer that sent a well-framed record with a bad key.
class FixedBucketExchange : public Exchange {
 public:
  explicit FixedBucketExchange(std::vector<mr::KeyValue> bucket)
      : bucket_(std::move(bucket)) {}
  agl::Status Publish(int, int, std::vector<mr::KeyValue>) override {
    return agl::Status::OK();
  }
  ShardRecords Collect(int, int) override {
    return bucket_;
  }
  agl::Result<std::vector<std::string>> AllGather(const std::string&, int,
                                                  std::string) override {
    return agl::Status::Unimplemented("no AllGather in GraphFlat");
  }
  void Abort(agl::Status) override {}
  ExchangeStats stats() const override { return {}; }

 private:
  std::vector<mr::KeyValue> bucket_;
};

// Regression: a malformed key arriving through the exchange used to throw
// std::invalid_argument out of std::stoull (skipping the launcher's
// Abort), and a signed one wrapped silently. It must be a Corruption
// status for every bad shape.
TEST(FlatShardTest, MalformedExchangedKeyIsCorruption) {
  const std::vector<NodeRecord> nodes = {{1, {1.f}, 0, {}}, {2, {2.f}, -1, {}}};
  const EdgeRecord edge{1, 2, 1.f, {}};
  GraphFlatConfig config;
  config.hops = 1;
  for (const char* bad : {"abc", "-5", "", "12x", "99999999999999999999"}) {
    std::string value(1, 'O');  // an out-edge record
    value += edge.Serialize();
    FixedBucketExchange exchange({{bad, std::move(value)}});
    auto records = RunFlatShard(config, 0, nodes, {edge},
                                /*node_feature_dim=*/1,
                                /*edge_feature_dim=*/0, &exchange);
    EXPECT_EQ(records.status().code(), agl::StatusCode::kCorruption)
        << "key '" << bad << "': " << records.status().ToString();
  }
}

}  // namespace
}  // namespace agl::flat
