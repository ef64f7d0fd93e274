#include "flat/shard.h"

#include <algorithm>
#include <future>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace agl::flat {
namespace {

// Decorrelates shard assignment from the reduce-task partitioner, which
// hashes the same keys with unsalted Fnv1aHash.
constexpr uint64_t kShardSalt = 0x5ca1ab1e5eedULL;

}  // namespace

ShardPlan::ShardPlan(int num_shards)
    : num_shards_(std::max(1, num_shards)) {}

int ShardPlan::HomeShard(const std::string& key) const {
  if (num_shards_ == 1) return 0;
  return static_cast<int>(DeriveSeed(kShardSalt, Fnv1aHash(key)) %
                          static_cast<uint64_t>(num_shards_));
}

int ShardPlan::HomeShardOf(NodeId id) const {
  return HomeShard(std::to_string(id));
}

ShardedTables ShardRouter::PartitionTables(
    const std::vector<NodeRecord>& nodes,
    const std::vector<EdgeRecord>& edges) const {
  const int s = plan_.num_shards();
  ShardedTables out;
  out.nodes.resize(s);
  out.edges.resize(s);
  for (const NodeRecord& n : nodes) {
    out.nodes[plan_.HomeShardOf(n.id)].push_back(n);
  }
  for (const EdgeRecord& e : edges) {
    const int src_shard = plan_.HomeShardOf(e.src);
    const int dst_shard = plan_.HomeShardOf(e.dst);
    out.edges[src_shard].push_back(e);
    if (dst_shard != src_shard) out.edges[dst_shard].push_back(e);
  }
  return out;
}

void ShardRouter::FilterToShard(int shard,
                                std::vector<mr::KeyValue>* records) const {
  std::erase_if(*records, [this, shard](const mr::KeyValue& kv) {
    return plan_.HomeShard(kv.key) != shard;
  });
}

agl::Status ParallelOverShards(int num_shards,
                               const std::function<agl::Status(int)>& fn) {
  if (num_shards <= 1) return fn(0);
  std::vector<agl::Status> status(num_shards);
  ThreadPool pool(static_cast<std::size_t>(num_shards));
  std::vector<std::future<void>> futs;
  futs.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    futs.push_back(pool.Submit([&status, &fn, s] { status[s] = fn(s); }));
  }
  for (auto& f : futs) f.get();
  for (const agl::Status& st : status) {
    if (!st.ok()) return st;
  }
  return agl::Status::OK();
}

}  // namespace agl::flat
