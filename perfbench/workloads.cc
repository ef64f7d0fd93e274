// The four benchmark workloads. Each drives the system through the
// agl::Run facade and the public stage functions only, and wraps every
// call into a layer in a span when tracing. README.md in this directory
// gives the reason for each workload and the meaning of each metric.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agl/agl.h"
#include "analytics/programs.h"
#include "bench.h"
#include "common/bounded_queue.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace perfbench {

// Busy threads per process: shards x MR workers for the sharded jobs,
// trainer workers for kBsp (one compute task per worker, no stage
// threads), MR workers under the single serving thread. Not counted: the
// process-wide kernel pool, sized by the program to the host's cores, onto
// which large matrix products fork for the moment they run.
constexpr int kShards = 2;
constexpr int kMrWorkers = 2;
constexpr int kTrainWorkers = 2;

int BusyThreads(const std::string& workload) {
  if (workload == "train") return kTrainWorkers;
  if (workload == "serve_mixed") return kMrWorkers;
  return kShards * kMrWorkers;
}

namespace {

using agl::flat::NodeId;
using Scores = std::vector<std::pair<NodeId, std::vector<float>>>;

// Set-up runs at least this many times, and keeps going until
// kMaxSetups runs or kSetupBudgetSeconds of set-up, so cheap set-ups get
// a steadier median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 21;
constexpr double kSetupBudgetSeconds = 3.0;
// Batch workloads time at least this many units even when one unit is
// longer than the window.
constexpr int kMinUnits = 5;
// Mutation batch pairs applied to the in-memory tables after each unit of a
// batch workload. The first batch after a job finds the tables out of
// cache; a burst makes the median the cost of the edit itself.
constexpr int kWritePairs = 4;
// Node feature width of the GNN workloads' graphs.
constexpr int64_t kFeatureDim = 32;

agl::data::Dataset MakeGraph(uint64_t seed, int64_t nodes, int64_t dim,
                             int64_t train) {
  agl::data::UugLikeOptions o;
  o.num_nodes = nodes;
  o.feature_dim = dim;
  o.attach_edges = 5;
  o.train_size = train;
  o.val_size = std::min<int64_t>(200, nodes / 10);
  o.test_size = std::min<int64_t>(200, nodes / 10);
  o.seed = seed;
  return agl::data::MakeUugLike(o);
}

agl::gnn::ModelConfig SageModel(int64_t in_dim, uint64_t seed) {
  agl::gnn::ModelConfig m;
  m.type = agl::gnn::ModelType::kGraphSage;
  m.num_layers = 2;
  m.in_dim = in_dim;
  m.hidden_dim = 16;
  m.out_dim = 2;
  m.seed = seed;
  return m;
}

agl::mr::JobConfig Job() {
  agl::mr::JobConfig job;
  job.num_workers = kMrWorkers;
  return job;
}

std::vector<NodeId> AllIds(const agl::data::Dataset& ds) {
  std::vector<NodeId> ids;
  ids.reserve(ds.nodes.size());
  for (const auto& n : ds.nodes) ids.push_back(n.id);
  return ids;
}

void AppendRaw(std::string* out, const void* p, std::size_t n) {
  out->append(static_cast<const char*>(p), n);
}

std::string ScoreBytes(const Scores& scores) {
  std::string out;
  for (const auto& [id, v] : scores) {
    const uint64_t n = v.size();
    AppendRaw(&out, &id, sizeof id);
    AppendRaw(&out, &n, sizeof n);
    AppendRaw(&out, v.data(), v.size() * sizeof(float));
  }
  return out;
}

void SortByTarget(std::vector<agl::subgraph::GraphFeature>* features) {
  std::sort(features->begin(), features->end(),
            [](const auto& a, const auto& b) {
              return a.target_id < b.target_id;
            });
}

std::string FeatureBytes(std::vector<agl::subgraph::GraphFeature> features) {
  SortByTarget(&features);
  std::string out;
  for (const auto& f : features) {
    const std::string bytes = f.Serialize();
    const uint64_t n = bytes.size();
    AppendRaw(&out, &n, sizeof n);
    out += bytes;
  }
  return out;
}

// A digest of FeatureBytes(features) taken one feature at a time, so a
// unit's check never holds a second copy of the dataset. `features` must be
// sorted by target.
uint64_t FeatureDigest(
    const std::vector<agl::subgraph::GraphFeature>& features) {
  uint64_t digest = 0;
  for (const auto& f : features) {
    digest = agl::DeriveSeed(digest, agl::Fnv1aHash(f.Serialize()));
  }
  return digest;
}

std::string LossBytes(const agl::trainer::TrainReport& report) {
  std::string out;
  for (const auto& e : report.epochs) {
    AppendRaw(&out, &e.mean_train_loss, sizeof e.mean_train_loss);
  }
  return out;
}

// The negative test's corruption: one flipped byte of the output under
// check.
void MaybeFlip(const Options& o, std::string* bytes) {
  if (o.flip_oracle_byte && !bytes->empty()) (*bytes)[bytes->size() / 2] ^= 1;
}

void Check(Report* report, const std::string& what, const std::string& got,
           const std::string& want) {
  if (got != want) {
    report->Fail(what + ": output differs from the reference (" +
                 std::to_string(got.size()) + " vs " +
                 std::to_string(want.size()) + " bytes)");
  }
}

void Sample(Tracer* t, const std::string& name, double value) {
  if (t != nullptr) t->Sample(name, value);
}

void SampleJob(Tracer* t, const std::string& stage,
               const agl::mr::JobStats& s) {
  const std::string p = "mr." + stage + ".";
  Sample(t, p + "shuffled_records", static_cast<double>(s.shuffled_records));
  Sample(t, p + "max_reduce_task_records",
         static_cast<double>(s.max_reduce_task_records));
  Sample(t, p + "task_attempts", static_cast<double>(s.task_attempts));
  Sample(t, p + "failed_attempts", static_cast<double>(s.failed_attempts));
  Sample(t, p + "retry_backoff_ms", s.retry_backoff_ms);
  if (s.task_attempts > 0) {
    Sample(t, p + "useful_attempt_ratio",
           static_cast<double>(s.task_attempts - s.failed_attempts) /
               static_cast<double>(s.task_attempts));
  }
}

// Repeats `setup` (see kMinSetups) and keeps the last result. Each run is
// timed from its start to its end. The previous run's result is torn down
// before the next run starts and outside its timed part, so only one
// set-up is resident at a time. Returns the median undisturbed set-up time
// (see Samples), or -1 when a set-up failed (the error is recorded in
// `report`).
template <typename T>
double RepeatSetup(Report* report,
                   const std::function<agl::Result<T>(int rep)>& setup,
                   std::optional<T>* kept) {
  Samples times;
  double spent = 0;
  OpCount ops{"setup", 0, 0};
  for (int rep = 0; rep < kMaxSetups; ++rep) {
    if (rep >= kMinSetups && spent >= kSetupBudgetSeconds) break;
    kept->reset();
    const HostTicks ticks = ReadHostTicks();
    const double t0 = Now();
    agl::Result<T> r = setup(rep);
    const double dt = Now() - t0;
    ++ops.attempted;
    if (!r.ok()) {
      ++ops.failed;
      report->ops.push_back(ops);
      report->Fail("setup: " + r.status().ToString());
      return -1;
    }
    times.Add(dt, ticks, ReadHostTicks());
    spent += dt;
    kept->emplace(std::move(r).value());
  }
  report->ops.push_back(ops);
  report->notes.push_back("setup runs: " + times.Describe());
  return Median(times.Kept());
}

// Every workload's writes are mutation batches that cancel out: batches
// alternate between adding the edge a->b while rewriting b's features, and
// removing it while restoring them, so every other batch returns the graph
// to its baseline and every batch costs the same.
struct Toggle {
  NodeId a = 0;
  NodeId b = 0;
  std::vector<float> original;
  std::vector<float> rewritten;
};

// Up to `count` toggles between low-degree nodes, so one write dirties a
// small share of the graph. In degree order, each node not yet used is
// paired with the next unused node it is not already linked to; the first
// toggle joins the two lowest-degree nodes not already linked.
std::vector<Toggle> PickToggles(const agl::data::Dataset& ds,
                                std::size_t count) {
  std::map<NodeId, int64_t> degree;
  std::set<std::pair<NodeId, NodeId>> present;
  for (const auto& e : ds.edges) {
    ++degree[e.src];
    ++degree[e.dst];
    present.insert({e.src, e.dst});
  }
  std::vector<NodeId> order;
  for (const auto& n : ds.nodes) order.push_back(n.id);
  std::stable_sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
    return degree[x] < degree[y];
  });
  std::vector<Toggle> toggles;
  std::set<NodeId> used;
  for (std::size_t i = 0; i < order.size() && toggles.size() < count; ++i) {
    if (used.count(order[i])) continue;
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      if (used.count(order[j]) || present.count({order[i], order[j]})) {
        continue;
      }
      Toggle t;
      t.a = order[i];
      t.b = order[j];
      used.insert({t.a, t.b});
      toggles.push_back(std::move(t));
      break;
    }
  }
  for (Toggle& t : toggles) {
    for (const auto& n : ds.nodes) {
      if (n.id == t.b) t.original = n.features;
    }
    for (float f : t.original) t.rewritten.push_back(-f);
  }
  return toggles;
}

std::vector<agl::serve::Mutation> MutationBatch(const Toggle& t, bool add) {
  std::vector<agl::serve::Mutation> batch(2);
  batch[0].type = add ? agl::serve::Mutation::Type::kAddEdge
                      : agl::serve::Mutation::Type::kRemoveEdge;
  batch[0].edge.src = t.a;
  batch[0].edge.dst = t.b;
  batch[1].type = agl::serve::Mutation::Type::kUpdateFeatures;
  batch[1].node = t.b;
  batch[1].features = add ? t.rewritten : t.original;
  return batch;
}

// What one timed unit of a batch workload did.
struct Unit {
  /// Wall time of the job.
  double seconds = 0;
  /// Work done, in the workload's throughput unit.
  double work = 0;
};

// Runs units until the window closes (at least kMinUnits; the warm-up unit
// is part of set-up), and reports the batch workloads' end-to-end metrics
// over the undisturbed units (see Samples); latency_p90_ms is taken per
// block of units (see BlockQuantile). After each unit, kWritePairs
// self-cancelling mutation batch pairs go through serve::ApplyMutation on
// the in-memory `tables`: an edit of the tables on its own, timed as
// mutation_p50_ms. A pair is one sample, since an add and a remove cost
// different amounts and the median of a two-cluster sample jumps between
// them. The peak resident memory is read when the window closes, before any
// oracle runs. With tracing, every other unit is traced and the ratio of
// traced to untraced median unit time is reported as the tracing overhead.
void TimedUnits(const Options& o, Tracer* tracer, Report* report,
                const std::string& kind, agl::data::Dataset* tables,
                const std::function<agl::Result<Unit>(int unit, Tracer* t,
                                                      int64_t parent)>& fn) {
  OpCount ops{kind, 0, 0};
  const Toggle toggle = PickToggles(*tables, 1).at(0);
  const std::vector<std::vector<agl::serve::Mutation>> batches = {
      MutationBatch(toggle, true), MutationBatch(toggle, false)};
  OpCount write_ops{"mutation_batch", 0, 0};
  Samples walls, writes, rates;
  std::vector<double> traced, untraced;
  const double end = Now() + o.seconds;
  for (int i = 0; Now() < end || i < kMinUnits; ++i) {
    Tracer* t = tracer->enabled() && i % 2 == 0 ? tracer : nullptr;
    const HostTicks before = ReadHostTicks();
    agl::Result<Unit> u = [&] {
      ScopedSpan span(t, "bench.unit", 0, i + 1);
      return fn(i, t, span.id());
    }();
    const HostTicks after = ReadHostTicks();
    ++ops.attempted;
    ++report->attempted;
    if (!u.ok()) {
      ++ops.failed;
      ++report->failed;
      report->Fail(kind + " " + std::to_string(i) + ": " +
                   u.status().ToString());
      continue;
    }
    walls.Add(u->seconds * 1e3, before, after);
    rates.Add(u->work / u->seconds, before, after);
    (t != nullptr ? traced : untraced).push_back(u->seconds);

    std::vector<double> pairs(kWritePairs, 0);
    bool writes_ok = true;
    const HostTicks writes_before = ReadHostTicks();
    for (int w = 0; w < 2 * kWritePairs; ++w) {
      const auto& batch = batches[static_cast<std::size_t>(w % 2)];
      agl::Status st;
      const double t0 = Now();
      {
        ScopedSpan span(t, "tables.mutation", 0, i + 1);
        for (const auto& m : batch) {
          st = agl::serve::ApplyMutation(m, &tables->nodes, &tables->edges);
          if (!st.ok()) break;
        }
      }
      pairs[static_cast<std::size_t>(w / 2)] += (Now() - t0) * 1e3 / 2;
      ++write_ops.attempted;
      ++report->attempted;
      if (!st.ok()) {
        ++write_ops.failed;
        ++report->failed;
        report->Fail("mutation batch: " + st.ToString());
        writes_ok = false;
      }
    }
    const HostTicks writes_after = ReadHostTicks();
    if (writes_ok) {
      for (double pair : pairs) writes.Add(pair, writes_before, writes_after);
    }
  }
  report->Metric("peak_rss_mb", PeakRssMb());
  report->ops.push_back(ops);
  report->ops.push_back(write_ops);
  report->Metric("throughput_per_s", Median(rates.Kept()));
  report->Metric("latency_p50_ms", Median(walls.Kept()));
  report->Metric("latency_p90_ms", BlockQuantile(walls.Kept(), 0.9));
  report->Metric("mutation_p50_ms", Median(writes.Kept()));
  report->notes.push_back("timed " + kind + " units: " + walls.Describe() +
                          " (after one warm-up unit in each set-up)");
  report->notes.push_back("mutation batch pairs: " + writes.Describe());
  if (!traced.empty() && !untraced.empty()) {
    tracer->Sample("trace.overhead_ratio", Median(traced) / Median(untraced));
  }
}

// ---------------------------------------------------------------------------
// offline: GraphFlat -> load -> batched GraphInfer over every node.
// ---------------------------------------------------------------------------

struct OfflineSetup {
  agl::data::Dataset ds;
  std::map<std::string, agl::tensor::Tensor> state;
  std::unique_ptr<agl::mr::LocalDfs> dfs;
};

agl::flat::GraphFlatConfig OfflineFlatConfig(bool tiny) {
  agl::flat::GraphFlatConfig c;
  c.hops = 2;
  c.sampler = {agl::sampling::Strategy::kUniform, 10};
  c.hub_threshold = tiny ? 16 : 64;
  c.targets = agl::flat::GraphFlatConfig::Targets::kAllNodes;
  c.num_shards = kShards;
  c.job = Job();
  return c;
}

}  // namespace

Report RunOffline(const Options& o, Tracer* tracer) {
  Report report;
  const int64_t nodes = o.tiny ? 300 : 2000;
  const agl::flat::GraphFlatConfig fconfig = OfflineFlatConfig(o.tiny);
  const agl::gnn::ModelConfig model =
      SageModel(kFeatureDim, agl::DeriveSeed(o.seed, 2));
  agl::infer::InferConfig iconfig;
  iconfig.model = model;
  iconfig.job = Job();
  iconfig.num_shards = kShards;
  iconfig.batch_slices = 4;
  iconfig.cache_budget_bytes = -1;

  // The last unit's outputs, for the oracles; released before each unit
  // so the next one never runs beside a copy of them.
  std::vector<agl::subgraph::GraphFeature> last_features;
  Scores last_scores;
  std::set<uint64_t> feature_digests, score_digests;
  auto pass = [&](OfflineSetup& s, int unit, Tracer* t,
                  int64_t parent) -> agl::Result<Unit> {
    std::vector<agl::subgraph::GraphFeature>().swap(last_features);
    Scores().swap(last_scores);
    Unit u;
    const std::string name = "features-" + std::to_string(unit);
    const double t0 = Now();
    agl::flat::GraphFlatStats fstats;
    {
      ScopedSpan span(t, "flat.run", parent);
      AGL_ASSIGN_OR_RETURN(
          fstats, agl::Run(fconfig, s.ds.nodes, s.ds.edges, s.dfs.get(), name));
    }
    std::vector<agl::subgraph::GraphFeature> features;
    {
      ScopedSpan span(t, "dfs.load", parent);
      AGL_ASSIGN_OR_RETURN(features, agl::LoadGraphFeatures(*s.dfs, name));
    }
    agl::infer::InferResult scores;
    {
      ScopedSpan span(t, "infer.run", parent);
      AGL_ASSIGN_OR_RETURN(
          scores, agl::Run(iconfig, s.state, s.ds.nodes, s.ds.edges));
    }
    u.seconds = Now() - t0;
    u.work = static_cast<double>(s.ds.nodes.size());

    Sample(t, "flat.features", static_cast<double>(fstats.num_features));
    Sample(t, "flat.total_nodes", static_cast<double>(fstats.total_nodes));
    Sample(t, "flat.max_nodes", static_cast<double>(fstats.max_nodes));
    Sample(t, "flat.exchange.records_published",
           static_cast<double>(fstats.exchange.records_published));
    Sample(t, "flat.exchange.wait_s", fstats.exchange.wait_seconds);
    SampleJob(t, "flat", fstats.job_stats);
    if (t != nullptr) {
      AGL_ASSIGN_OR_RETURN(const uint64_t bytes, s.dfs->DatasetBytes(name));
      Sample(t, "dfs.dataset_bytes", static_cast<double>(bytes));
    }
    const auto& c = scores.costs;
    Sample(t, "infer.embedding_evaluations",
           static_cast<double>(c.embedding_evaluations));
    Sample(t, "infer.cache_hits", static_cast<double>(c.cache_hits));
    Sample(t, "infer.cache_misses", static_cast<double>(c.cache_misses));
    if (c.cache_hits + c.cache_misses > 0) {
      Sample(t, "infer.cache_hit_ratio",
             static_cast<double>(c.cache_hits) /
                 static_cast<double>(c.cache_hits + c.cache_misses));
    }

    // Digests let every unit be compared without keeping every unit's
    // output.
    SortByTarget(&features);
    feature_digests.insert(FeatureDigest(features));
    score_digests.insert(agl::Fnv1aHash(ScoreBytes(scores.scores)));
    last_features = std::move(features);
    last_scores = std::move(scores.scores);
    // Untimed: keep one dataset on the DFS at a time.
    AGL_RETURN_IF_ERROR(s.dfs->DropDataset(name));
    return u;
  };

  std::optional<OfflineSetup> kept;
  const double setup_s = RepeatSetup<OfflineSetup>(
      &report,
      [&](int rep) -> agl::Result<OfflineSetup> {
        OfflineSetup s;
        s.ds = MakeGraph(agl::DeriveSeed(o.seed, 1), nodes, kFeatureDim,
                         nodes / 3);
        s.state = agl::gnn::GnnModel(model).StateDict();
        AGL_ASSIGN_OR_RETURN(
            agl::mr::LocalDfs dfs,
            agl::mr::LocalDfs::Open(o.work_dir + "/offline-" +
                                    std::to_string(rep)));
        s.dfs = std::make_unique<agl::mr::LocalDfs>(std::move(dfs));
        AGL_RETURN_IF_ERROR(pass(s, -1, nullptr, 0).status());
        return s;
      },
      &kept);
  if (setup_s < 0) return report;
  OfflineSetup& s = *kept;
  report.Metric("setup_s", setup_s);
  TimedUnits(o, tracer, &report, "offline_pass", &s.ds,
             [&](int unit, Tracer* t, int64_t parent) {
               return pass(s, unit, t, parent);
             });

  // Oracles, outside the timed window.
  if (feature_digests.size() > 1 || score_digests.size() > 1) {
    report.Fail("offline: passes produced different outputs");
  }
  agl::flat::GraphFlatConfig one_shard = fconfig;
  one_shard.num_shards = 1;
  auto ref_features =
      agl::flat::RunGraphFlatInMemory(one_shard, s.ds.nodes, s.ds.edges);
  agl::infer::InferConfig plain;
  plain.model = model;
  plain.job = Job();
  auto ref_scores =
      agl::infer::RunGraphInfer(plain, s.state, s.ds.nodes, s.ds.edges);
  if (!ref_features.ok() || !ref_scores.ok()) {
    report.Fail("offline: reference run failed");
    return report;
  }
  std::string score_bytes = ScoreBytes(last_scores);
  MaybeFlip(o, &score_bytes);
  Check(&report, "offline loaded dataset vs 1-shard RunGraphFlatInMemory",
        FeatureBytes(std::move(last_features)),
        FeatureBytes(std::move(ref_features).value()));
  Check(&report,
        "offline scores vs 1-shard, 1-slice, cache-off RunGraphInfer",
        score_bytes, ScoreBytes(ref_scores->scores));
  return report;
}

// ---------------------------------------------------------------------------
// train: fixed-epoch kBsp training over a GraphFlat output made in set-up.
// ---------------------------------------------------------------------------

namespace {

struct TrainSetup {
  agl::data::Dataset ds;
  std::vector<agl::subgraph::GraphFeature> train;
  std::unique_ptr<agl::mr::LocalDfs> dfs;
};

}  // namespace

Report RunTrain(const Options& o, Tracer* tracer) {
  Report report;
  const int64_t nodes = o.tiny ? 400 : 4000;
  const int64_t targets = o.tiny ? 128 : 2048;

  agl::trainer::TrainerConfig config;
  config.model = SageModel(kFeatureDim, agl::DeriveSeed(o.seed, 2));
  config.task = agl::trainer::TaskKind::kBinaryAuc;
  config.sync_mode = agl::trainer::SyncMode::kBsp;
  config.num_workers = kTrainWorkers;
  config.ps_shards = 4;
  config.batch_size = 32;
  config.epochs = 2;
  config.eval_every = 0;
  config.seed = agl::DeriveSeed(o.seed, 3);

  std::string state_bytes;
  std::set<uint64_t> loss_digests, state_digests;
  auto job = [&](TrainSetup& s, Tracer* t,
                 int64_t parent) -> agl::Result<Unit> {
    Unit u;
    agl::trainer::TrainReport r;
    const double t0 = Now();
    {
      ScopedSpan span(t, "trainer.run", parent);
      AGL_ASSIGN_OR_RETURN(r, agl::Run(config, s.train, {}));
    }
    u.seconds = Now() - t0;
    u.work = static_cast<double>(s.train.size()) * config.epochs;
    state_bytes = agl::SerializeState(r.final_state);

    for (const auto& e : r.epochs) {
      Sample(t, "trainer.epoch_s", e.seconds);
      Sample(t, "trainer.prep_s", e.prep_seconds);
      Sample(t, "trainer.compute_s", e.compute_seconds);
      Sample(t, "trainer.comm_s", e.comm_seconds);
    }
    const auto& ps = r.ps_stats;
    Sample(t, "ps.pulls", static_cast<double>(ps.pulls));
    Sample(t, "ps.pushes", static_cast<double>(ps.pushes));
    Sample(t, "ps.bytes_pulled", static_cast<double>(ps.bytes_pulled));
    Sample(t, "ps.bytes_pushed", static_cast<double>(ps.bytes_pushed));
    Sample(t, "ps.ssp_waits", static_cast<double>(ps.ssp_waits));
    loss_digests.insert(agl::Fnv1aHash(LossBytes(r)));
    state_digests.insert(agl::Fnv1aHash(state_bytes));
    return u;
  };

  std::optional<TrainSetup> kept;
  const double setup_s = RepeatSetup<TrainSetup>(
      &report,
      [&](int rep) -> agl::Result<TrainSetup> {
        TrainSetup s;
        s.ds = MakeGraph(agl::DeriveSeed(o.seed, 1), nodes, kFeatureDim,
                         targets);
        const agl::data::Dataset& ds = s.ds;
        AGL_ASSIGN_OR_RETURN(
            agl::mr::LocalDfs dfs,
            agl::mr::LocalDfs::Open(o.work_dir + "/train-" +
                                    std::to_string(rep)));
        s.dfs = std::make_unique<agl::mr::LocalDfs>(std::move(dfs));
        agl::flat::GraphFlatConfig fconfig = OfflineFlatConfig(o.tiny);
        fconfig.targets = agl::flat::GraphFlatConfig::Targets::kLabeledNodes;
        AGL_RETURN_IF_ERROR(
            agl::Run(fconfig, ds.nodes, ds.edges, s.dfs.get(), "features")
                .status());
        AGL_ASSIGN_OR_RETURN(auto features,
                             agl::LoadGraphFeatures(*s.dfs, "features"));
        s.train = agl::data::SplitFeatures(std::move(features), ds).train;
        if (s.train.size() != static_cast<std::size_t>(targets)) {
          return agl::Status::Internal("train split has " +
                                       std::to_string(s.train.size()) +
                                       " features");
        }
        AGL_RETURN_IF_ERROR(job(s, nullptr, 0).status());
        return s;
      },
      &kept);
  if (setup_s < 0) return report;
  TrainSetup& s = *kept;
  report.Metric("setup_s", setup_s);

  TimedUnits(o, tracer, &report, "train_job", &s.ds,
             [&](int, Tracer* t, int64_t parent) {
               return job(s, t, parent);
             });

  // Oracles, outside the timed window.
  if (loss_digests.size() > 1 || state_digests.size() > 1) {
    report.Fail("train: repetitions gave different loss sequences or "
                "final states");
  }
  agl::trainer::TrainerConfig ssp = config;
  ssp.sync_mode = agl::trainer::SyncMode::kSsp;
  ssp.staleness_bound = 0;
  auto ref = agl::Run(ssp, s.train, {});
  if (!ref.ok()) {
    report.Fail("train: reference kSsp run failed: " +
                ref.status().ToString());
    return report;
  }
  MaybeFlip(o, &state_bytes);
  Check(&report, "train kBsp final state vs kSsp bound-0", state_bytes,
        agl::SerializeState(ref->final_state));
  return report;
}

// ---------------------------------------------------------------------------
// serve_mixed: open-loop score requests beside a stream of mutations.
// ---------------------------------------------------------------------------

namespace {

struct ServeSetup {
  agl::data::Dataset ds;
  agl::serve::ServeConfig config;
  std::map<std::string, agl::tensor::Tensor> state;
  std::unique_ptr<agl::mr::LocalDfs> dfs;
  std::unique_ptr<agl::serve::InferenceService> service;
};

struct Request {
  double due = 0;  // scheduled send time, seconds after the window opens
  std::vector<NodeId> targets;
};

struct InFlight {
  int index = 0;
  double due = 0;  // absolute
  double sent = 0;
  HostTicks sent_ticks;
  std::shared_ptr<agl::serve::InferenceService::Pending> pending;
  int64_t span = 0;
};

// One timed mutation batch.
struct Write {
  std::size_t index = 0;  // in the write schedule
  double ms = 0;
  HostTicks from, to;
};

// Generator lateness beyond these marks the run invalid: the schedule
// the latencies are measured against was not kept.
constexpr double kMaxMedianLatenessS = 0.005;
constexpr double kMaxLatenessS = 0.25;

}  // namespace

Report RunServeMixed(const Options& o, Tracer* tracer) {
  Report report;
  const int64_t nodes = o.tiny ? 200 : 800;
  // Offered load: one operation due every kSlot seconds, open loop. Every
  // fourth slot is a mutation batch, the others score requests with 24
  // uniform targets (7.5 req/s and 2.5 writes/s). Slot k is due at
  // (k + 1/2) * kSlot, requests with a seeded jitter of up to kJitter
  // slots. A pass or a write takes well under a slot, so each operation
  // finds the serving thread idle unless the one before it overran its
  // slot, and a slower host stretches latency instead of building a queue.
  // Random arrival times put a seed-dependent number of requests behind a
  // write or another request: the p90 of such runs moved 25-29% between
  // seeds on an idle host.
  constexpr double kSlot = 0.1;
  constexpr int kSlotsPerWrite = 4;
  constexpr double kJitter = 0.125;
  // The writes cycle through this many toggles: what one write costs
  // depends on the graph around its toggle, and one toggle per run made
  // the median write time move 28-46 ms with the seed.
  constexpr std::size_t kToggles = 8;
  const int targets_per_request = 24;
  // Operations due in the first half second of the window are a warm-up.
  const double warmup_s = 0.5;

  std::optional<ServeSetup> kept;
  const double setup_s = RepeatSetup<ServeSetup>(
      &report,
      [&](int rep) -> agl::Result<ServeSetup> {
        ServeSetup s;
        s.ds = MakeGraph(agl::DeriveSeed(o.seed, 1), nodes, kFeatureDim,
                         nodes / 3);
        const auto model = SageModel(kFeatureDim, agl::DeriveSeed(o.seed, 2));
        s.state = agl::gnn::GnnModel(model).StateDict();
        AGL_ASSIGN_OR_RETURN(
            agl::mr::LocalDfs dfs,
            agl::mr::LocalDfs::Open(o.work_dir + "/serve-" +
                                    std::to_string(rep)));
        s.dfs = std::make_unique<agl::mr::LocalDfs>(std::move(dfs));
        // The flattened dataset the service keeps fresh under mutations;
        // the incremental path needs sampling off and a dormant hub pass.
        // It is 1-hop: unsampled 2-hop neighborhoods on this power-law
        // graph put about half the nodes in every write's dirty closure,
        // so each write would re-flatten half the graph (3.7 s measured)
        // and the FIFO would saturate.
        agl::flat::GraphFlatConfig fconfig;
        fconfig.hops = 1;
        fconfig.job = Job();
        AGL_RETURN_IF_ERROR(
            agl::Run(fconfig, s.ds.nodes, s.ds.edges, s.dfs.get(), "features")
                .status());
        s.config.infer.model = model;
        s.config.infer.job = Job();
        s.config.infer.batch_slices = 1;
        s.config.max_batch_targets = 512;
        s.config.features_dataset = "features";
        s.config.flat = fconfig;
        AGL_ASSIGN_OR_RETURN(s.service, agl::Run(s.config, s.state,
                                                 s.ds.nodes, s.ds.edges,
                                                 s.dfs.get()));
        AGL_RETURN_IF_ERROR(s.service->Score(AllIds(s.ds)).status());
        return s;
      },
      &kept);
  if (setup_s < 0) return report;
  ServeSetup& s = *kept;
  report.Metric("setup_s", setup_s);
  agl::serve::InferenceService& service = *s.service;

  // Inputs, from the seed: the arrival jitter, each request's targets and
  // the probe set. The schedule is the same shape for every seed, so every
  // seed offers the same load.
  agl::Rng rng(agl::DeriveSeed(o.seed, 4));
  const auto slots = static_cast<int>(std::lround(o.seconds / kSlot));
  std::vector<Request> schedule;
  std::vector<double> write_dues;
  for (int k = 0; k < slots; ++k) {
    if (k % kSlotsPerWrite == kSlotsPerWrite - 1) {
      write_dues.push_back((k + 0.5) * kSlot);
      continue;
    }
    Request r;
    r.due = (k + 0.5 + rng.Uniform(-kJitter, kJitter)) * kSlot;
    for (int t = 0; t < targets_per_request; ++t) {
      r.targets.push_back(s.ds.nodes[static_cast<std::size_t>(rng.UniformInt(
                                         0, nodes - 1))]
                              .id);
    }
    schedule.push_back(std::move(r));
  }
  const std::vector<Toggle> toggles = PickToggles(s.ds, kToggles);
  std::vector<NodeId> probe;
  for (int k = 0; k < 64; ++k) {
    probe.push_back(
        s.ds.nodes[static_cast<std::size_t>(rng.UniformInt(0, nodes - 1))].id);
  }

  // Every batch applied, for the oracle's replay.
  std::vector<std::vector<agl::serve::Mutation>> applied;
  OpCount mutation_ops{"mutation_batch", 0, 0};

  const agl::serve::ServeStats before = service.stats();
  const double start = Now() + 0.05;
  agl::BoundedQueue<InFlight> inflight(schedule.size() + 1);
  std::vector<double> lateness;
  Samples latencies;                    // from the scheduled send, ms
  std::vector<double> from_submit;      // from the actual send, s
  std::vector<double> traced_lat, untraced_lat;
  int64_t rejected = 0, failed_requests = 0;
  // Requests served and seconds spent in passes between two completions
  // the collector saw, for the capacity figure.
  Samples served_between, pass_seconds_between;
  std::vector<Write> writes;

  std::thread collector([&] {
    agl::serve::ServeStats last = before;
    HostTicks last_ticks = ReadHostTicks();
    InFlight f;
    while (inflight.Pop(&f)) {
      auto r = f.pending->Wait();
      const double done = Now();
      const HostTicks done_ticks = ReadHostTicks();
      if (f.span > 0) tracer->End(f.span);
      const agl::serve::ServeStats now = service.stats();
      const bool timed =
          schedule[static_cast<std::size_t>(f.index)].due >= warmup_s;
      if (timed) {
        served_between.Add(static_cast<double>(now.served - last.served),
                           last_ticks, done_ticks);
        pass_seconds_between.Add(now.infer_seconds - last.infer_seconds,
                                 last_ticks, done_ticks);
      }
      last = now;
      last_ticks = done_ticks;
      if (!r.ok()) {
        ++failed_requests;
        continue;
      }
      if (!timed) continue;
      latencies.Add((done - f.due) * 1e3, f.sent_ticks, done_ticks);
      from_submit.push_back(done - f.sent);
      if (tracer->enabled()) {
        (f.span > 0 ? traced_lat : untraced_lat).push_back(done - f.due);
      }
    }
  });
  // Write j adds (j even) or removes (j odd) toggle j / 2, round robin.
  std::thread mutator([&] {
    for (std::size_t j = 0; j < write_dues.size(); ++j) {
      const double due = start + write_dues[j];
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(due))));
      auto batch = MutationBatch(toggles[j / 2 % toggles.size()], j % 2 == 0);
      Tracer* t = tracer->enabled() && j / 2 % 2 == 0 ? tracer : nullptr;
      Write w;
      w.index = j;
      w.from = ReadHostTicks();
      const double t0 = Now();
      agl::Status st;
      {
        ScopedSpan span(t, "serve.mutation", 0, -1 - static_cast<int64_t>(j));
        st = service.ApplyMutations(batch);
      }
      w.ms = (Now() - t0) * 1e3;
      w.to = ReadHostTicks();
      ++mutation_ops.attempted;
      if (!st.ok()) {
        ++mutation_ops.failed;
        continue;
      }
      if (write_dues[j] >= warmup_s) writes.push_back(w);
      applied.push_back(std::move(batch));
    }
  });

  // The generator: sends each request at its due time, never waiting for
  // replies (open loop).
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const double due = start + schedule[i].due;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(due))));
    InFlight f;
    f.index = static_cast<int>(i);
    f.due = due;
    const bool traced = tracer->enabled() && i % 2 == 0;
    f.span = traced ? tracer->Begin("serve.request", 0,
                                    static_cast<int64_t>(i) + 1)
                    : 0;
    f.sent_ticks = ReadHostTicks();
    f.sent = Now();
    lateness.push_back(f.sent - due);
    auto pending = service.Submit(schedule[i].targets);
    if (!pending.ok()) {
      ++rejected;
      if (f.span > 0) tracer->End(f.span);
      continue;
    }
    f.pending = std::move(pending).value();
    inflight.Push(std::move(f));
  }
  inflight.Close();
  collector.join();
  mutator.join();
  report.Metric("peak_rss_mb", PeakRssMb());
  const agl::serve::ServeStats after = service.stats();

  const auto requests = static_cast<int64_t>(schedule.size());
  report.ops.push_back({"score_request", requests, rejected + failed_requests});
  report.ops.push_back(mutation_ops);
  report.ops.push_back({"pass", after.batches - before.batches, 0});
  report.attempted = requests + mutation_ops.attempted;
  report.failed = rejected + failed_requests + mutation_ops.failed;
  if (mutation_ops.failed > 0) report.Fail("a mutation batch failed");

  const double late_median = Median(lateness);
  const double late_max =
      lateness.empty() ? 0
                       : *std::max_element(lateness.begin(), lateness.end());
  report.notes.push_back(
      "generator lateness: median " + std::to_string(late_median * 1e3) +
      " ms, max " + std::to_string(late_max * 1e3) + " ms");
  if (late_median > kMaxMedianLatenessS || late_max > kMaxLatenessS) {
    report.Fail("invalid run: the request generator fell behind its schedule");
  }
  // A toggle's add and its remove are one sample, as in TimedUnits.
  Samples write_pairs;
  for (std::size_t j = 0; j + 1 < writes.size(); ++j) {
    const Write& a = writes[j];
    const Write& b = writes[j + 1];
    if (a.index % 2 != 0 || b.index != a.index + 1) continue;
    const HostTicks both{(a.to.steal - a.from.steal) + (b.to.steal - b.from.steal),
                         (a.to.total - a.from.total) + (b.to.total - b.from.total)};
    write_pairs.Add((a.ms + b.ms) / 2, HostTicks{}, both);
  }
  const std::vector<double> kept_latencies = latencies.Kept();
  report.notes.push_back("timed requests: " + latencies.Describe() +
                         " (p90 has " +
                         std::to_string(kept_latencies.size() / 10) +
                         " beyond it), mutation batch pairs: " +
                         write_pairs.Describe());

  // The offered load is fixed, so requests served per second of the window
  // would only restate it. Requests served per second the serving thread
  // spent in its passes tracks the capacity of the serve path instead.
  double served_count = 0, pass_seconds = 0;
  for (double v : served_between.Kept()) served_count += v;
  for (double v : pass_seconds_between.Kept()) pass_seconds += v;
  if (pass_seconds > 0) {
    report.Metric("throughput_per_s", served_count / pass_seconds);
  }
  report.Metric("latency_p50_ms", Median(kept_latencies));
  report.Metric("latency_p90_ms", Quantile(kept_latencies, 0.9));
  report.Metric("mutation_p50_ms", Median(write_pairs.Kept()));

  if (tracer->enabled()) {
    const double passes = static_cast<double>(
        std::max<int64_t>(1, after.batches - before.batches));
    const double pass_s = (after.infer_seconds - before.infer_seconds) / passes;
    tracer->Sample("serve.pass_s", pass_s);
    for (double l : from_submit) {
      tracer->Sample("serve.queue_wait_s", std::max(0.0, l - pass_s));
    }
    tracer->Sample("serve.requests_per_pass",
                   static_cast<double>(after.served - before.served) / passes);
    const double hits =
        static_cast<double>(after.store.hits - before.store.hits);
    const double misses =
        static_cast<double>(after.store.misses - before.store.misses);
    if (hits + misses > 0) {
      tracer->Sample("serve.store_hit_ratio", hits / (hits + misses));
    }
    const double batches = static_cast<double>(std::max<int64_t>(
        1, after.mutation_batches - before.mutation_batches));
    tracer->Sample(
        "serve.invalidated_nodes",
        static_cast<double>(after.invalidated_nodes -
                            before.invalidated_nodes) /
            batches);
    tracer->Sample("serve.reflatten_dirty_targets",
                   static_cast<double>(after.reflatten_dirty_targets -
                                       before.reflatten_dirty_targets) /
                       batches);
    tracer->Sample("serve.rejected",
                   static_cast<double>(after.rejected - before.rejected));
    tracer->Sample("serve.failed",
                   static_cast<double>(after.failed - before.failed));
    if (!traced_lat.empty() && !untraced_lat.empty()) {
      tracer->Sample("trace.overhead_ratio",
                     Median(traced_lat) / Median(untraced_lat));
    }
  }

  // Oracle, outside the timed window: served probe scores equal a cold
  // batched run over a copy of the tables with the same batches applied.
  auto served = service.Score(probe);
  std::vector<agl::flat::NodeRecord> mnodes = s.ds.nodes;
  std::vector<agl::flat::EdgeRecord> medges = s.ds.edges;
  for (const auto& batch : applied) {
    for (const auto& m : batch) {
      if (agl::Status st = agl::serve::ApplyMutation(m, &mnodes, &medges);
          !st.ok()) {
        report.Fail("serve_mixed: replaying a mutation: " + st.ToString());
        return report;
      }
    }
  }
  agl::infer::InferConfig cold = s.config.infer;
  cold.target_ids = probe;
  auto ref = agl::infer::RunGraphInferBatched(cold, s.state, mnodes, medges);
  if (!served.ok() || !ref.ok()) {
    report.Fail("serve_mixed: probe or reference run failed");
    return report;
  }
  std::string served_bytes = ScoreBytes(*served);
  MaybeFlip(o, &served_bytes);
  Check(&report, "serve_mixed probe scores vs cold batched run over mutated "
        "tables", served_bytes, ScoreBytes(ref->scores));
  if (agl::Status st = service.Shutdown(); !st.ok()) {
    report.Fail("serve_mixed: shutdown: " + st.ToString());
  }
  return report;
}

// ---------------------------------------------------------------------------
// pagerank: PageRank to convergence on the sharded MR round loop.
// ---------------------------------------------------------------------------

namespace {

struct PagerankSetup {
  agl::data::Dataset ds;
};

}  // namespace

Report RunPagerank(const Options& o, Tracer* tracer) {
  Report report;
  const int64_t nodes = o.tiny ? 500 : 10000;

  const agl::analytics::PageRankProgram pagerank(0.85, 1e-8);
  agl::analytics::AnalyticsConfig config;
  config.max_supersteps = 200;
  config.num_shards = kShards;
  config.job = Job();

  std::string values;
  std::set<uint64_t> digests;
  OpCount supersteps{"superstep", 0, 0};
  auto job = [&](PagerankSetup& s, int unit, Tracer* t,
                 int64_t parent) -> agl::Result<Unit> {
    Unit u;
    agl::analytics::AnalyticsResult r;
    const double t0 = Now();
    {
      ScopedSpan span(t, "analytics.run", parent);
      AGL_ASSIGN_OR_RETURN(
          r, agl::Run(config, pagerank, s.ds.nodes, s.ds.edges));
    }
    u.seconds = Now() - t0;
    const auto& st = r.stats;
    if (!st.converged) {
      return agl::Status::Internal("pagerank did not converge");
    }
    u.work = static_cast<double>(st.num_gather_edges) *
             static_cast<double>(st.supersteps);
    values = r.SerializeValues();
    if (unit >= 0) supersteps.attempted += st.supersteps;

    Sample(t, "analytics.supersteps",
           static_cast<double>(st.supersteps));
    int64_t messages = 0;
    for (int64_t m : st.messages_per_round) messages += m;
    Sample(t, "analytics.messages", static_cast<double>(messages));
    Sample(t, "analytics.exchange.wait_s", st.exchange.wait_seconds);
    SampleJob(t, "analytics", st.job_stats);
    digests.insert(agl::Fnv1aHash(values));
    return u;
  };
  std::optional<PagerankSetup> kept;
  const double setup_s = RepeatSetup<PagerankSetup>(
      &report,
      [&](int) -> agl::Result<PagerankSetup> {
        PagerankSetup s{
            MakeGraph(agl::DeriveSeed(o.seed, 1), nodes, 4, nodes / 10)};
        AGL_RETURN_IF_ERROR(job(s, -1, nullptr, 0).status());
        return s;
      },
      &kept);
  if (setup_s < 0) return report;
  PagerankSetup& s = *kept;
  report.Metric("setup_s", setup_s);

  TimedUnits(o, tracer, &report, "pagerank_job", &s.ds,
             [&](int unit, Tracer* t, int64_t parent) {
               return job(s, unit, t, parent);
             });
  report.ops.push_back(supersteps);

  // Oracle, outside the timed window.
  if (digests.size() > 1) {
    report.Fail("pagerank: jobs produced different values");
  }
  agl::analytics::AnalyticsConfig one = config;
  one.num_shards = 1;
  auto ref = agl::Run(one, pagerank, s.ds.nodes, s.ds.edges);
  if (!ref.ok()) {
    report.Fail("pagerank: reference run failed: " + ref.status().ToString());
    return report;
  }
  MaybeFlip(o, &values);
  Check(&report, "pagerank values vs the 1-shard run", values,
        ref->SerializeValues());
  return report;
}

}  // namespace perfbench
