// Mid-epoch trainer checkpoints (fault tolerance for long epochs).
//
// The per-epoch checkpoint datasets ("<prefix>-epoch-<n>") only capture
// parameter values at epoch boundaries; a kill inside a long epoch loses
// the whole epoch. This layer checkpoints the full training state every
// `checkpoint_every_batches` per-worker batches into the rolling dataset
// "<prefix>-mid" (atomically republished each time, so a crash during the
// write leaves the previous checkpoint intact):
//
//   * every parameter value plus its Adam moments and step count
//     (ps::ExportedParam — the optimizer trajectory, not just weights);
//   * the SSP clocks / committed-tick watermark;
//   * each worker's batch cursor, dropout RNG stream, and running loss;
//   * the epoch loop's best-metric / patience counters.
//
// Restoring all of that makes resume *bit-exact* for the deterministic
// modes (kBsp, and kSsp at staleness bound 0): the resumed run replays the
// exact arithmetic the uninterrupted run would have performed.
//
// Consistency protocol. A checkpoint is only meaningful when no gradient
// is in flight. The BSP runner checkpoints between rounds on the main
// thread, where that holds trivially. The pipelined SSP runner uses
// CheckpointCoordinator: at each checkpoint tick every worker's comm
// thread parks at a barrier right after its push, and the compute stage
// has deposited its cursor (taken right after computing that tick's
// batch, before any draw for the next one). When the last worker arrives,
// all pushed ticks are committed and the PS is quiescent, so the last
// arrival snapshots it and writes the checkpoint. Once any worker
// exhausts its partition the barrier can no longer be made consistent,
// so checkpointing simply stops for the rest of that epoch.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ps/parameter_server.h"

namespace agl::trainer {

/// One worker's position inside an epoch, captured right after it finished
/// computing batch `next_batch - 1` (so `next_batch` batches are done).
struct WorkerCursor {
  int64_t next_batch = 0;
  double loss_sum = 0;
  /// The worker's dropout RNG stream (std::mt19937_64 stream state), taken
  /// after the last completed batch's draws.
  std::string rng_state;
};

/// Full mid-epoch training state. `tick` is the per-worker batch count the
/// checkpoint was taken at; under the coordinator protocol every cursor's
/// next_batch equals it.
struct TrainCheckpoint {
  /// Guards against resuming with an incompatible run setup; computed by
  /// the trainer from its config + dataset size.
  uint64_t fingerprint = 0;
  int64_t epoch = 0;
  int64_t tick = 0;
  double best_val_metric = 0;
  int64_t bad_evals = 0;
  std::vector<WorkerCursor> cursors;
  std::map<std::string, ps::ExportedParam> ps_state;
};

/// Dataset name the rolling mid-epoch checkpoint is published under.
std::string MidCheckpointName(const std::string& prefix);

/// Flattens a checkpoint to a versioned byte string ("AGLCKPT1" magic).
std::string SerializeTrainCheckpoint(const TrainCheckpoint& ckpt);

/// Parses bytes produced by SerializeTrainCheckpoint. Truncated or
/// malformed input (including a bad magic) surfaces as kCorruption; a
/// fingerprint differing from `expected_fingerprint` — a checkpoint from
/// some other run setup — as kFailedPrecondition.
agl::Result<TrainCheckpoint> ParseTrainCheckpoint(
    const std::string& bytes, uint64_t expected_fingerprint);

/// Barrier that makes pipelined SSP checkpoints consistent (see the file
/// comment for the protocol). All methods are no-ops when `every <= 0`.
class CheckpointCoordinator {
 public:
  /// `sink` runs on the last arriving comm thread with the PS quiescent;
  /// its status propagates to every worker arriving at that tick.
  CheckpointCoordinator(
      int num_workers, int64_t every,
      std::function<agl::Status(int64_t tick,
                                std::vector<WorkerCursor> cursors)>
          sink);

  /// True when `tick` (1-based per-worker batch count) is a checkpoint
  /// tick, i.e. Deposit/Arrive will act on it. Lets the compute stage
  /// skip serializing its RNG on every other batch.
  bool IsCheckpointTick(int64_t tick) const EXCLUDES(mu_);

  /// Compute stage: records worker `worker`'s cursor for checkpoint tick
  /// `tick`. Must happen before that tick's gradient is handed to the
  /// comm stage (which orders it before the worker's own Arrive).
  void Deposit(int worker, int64_t tick, WorkerCursor cursor) EXCLUDES(mu_);

  /// Comm stage: called after the push for `tick` completed. At
  /// checkpoint ticks, blocks until every active worker arrived; the last
  /// arrival runs the sink. Returns the sink's status (every arrival of
  /// the tick sees it), kAborted after Cancel().
  agl::Status Arrive(int worker, int64_t tick) EXCLUDES(mu_);

  /// Worker exhausted its partition: stop counting it and disable all
  /// further checkpoints this epoch (a barrier without it can no longer
  /// describe a resumable state). Any barrier in progress is abandoned
  /// (its waiters are released with OK, no checkpoint is written).
  void Finish(int worker) EXCLUDES(mu_);

  /// Error teardown: release every present and future Arrive with
  /// kAborted so pipeline threads stay joinable.
  void Cancel() EXCLUDES(mu_);

 private:
  const int num_workers_;
  const int64_t every_;
  const std::function<agl::Status(int64_t, std::vector<WorkerCursor>)>
      sink_;

  mutable common::Mutex mu_;
  common::CondVar cv_;
  int active_ GUARDED_BY(mu_);
  bool disabled_ GUARDED_BY(mu_) = false;
  bool cancelled_ GUARDED_BY(mu_) = false;
  // The barrier currently forming (at most one is ever in flight: nobody
  // proceeds past a checkpoint tick until everyone arrived at it).
  int64_t gen_tick_ GUARDED_BY(mu_) = -1;
  int arrived_ GUARDED_BY(mu_) = 0;
  bool gen_done_ GUARDED_BY(mu_) = false;
  agl::Status gen_status_ GUARDED_BY(mu_);
  std::vector<WorkerCursor> cursors_ GUARDED_BY(mu_);
  std::vector<bool> have_cursor_ GUARDED_BY(mu_);
};

}  // namespace agl::trainer
