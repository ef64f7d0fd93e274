// Shared declarations of the repository benchmark: run options, the
// in-memory tracer, and the report each workload hands back to main.
// README.md in this directory describes the workloads and metrics.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace perfbench {

/// Seconds on the steady clock.
double Now();

/// Median of `v` (0 for an empty sample).
double Median(std::vector<double> v);

/// Peak resident memory of this process so far, in MiB (ru_maxrss).
double PeakRssMb();

/// The q-quantile of `v` by the nearest-rank rule (0 for an empty sample).
double Quantile(std::vector<double> v, double q);

/// The q-quantile of a sample in time order, taken per block: `v` is cut
/// into up to 5 consecutive blocks of at least 10 samples each, and the
/// result is the median of the blocks' q-quantiles (the plain quantile when
/// there are fewer than 20 samples). A host slow-down that lasts part of
/// the window moves the tail of the blocks it falls in, not the median of
/// the blocks; a slower program moves every block.
double BlockQuantile(const std::vector<double>& v, double q);

/// CPU ticks of the whole host from the "cpu" line of /proc/stat: the time
/// the hypervisor ran other guests on this host's CPUs (steal), and all
/// time. Both 0 where /proc/stat cannot be read.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks ReadHostTicks();

/// Samples of one timed quantity, each marked disturbed when the hypervisor
/// took more than 1% of the host's CPU time while it was measured. Such a
/// sample timed the host, not the program: a stolen tick stalls every
/// thread that waits on the stalled one.
class Samples {
 public:
  void Add(double value, const HostTicks& from, const HostTicks& to);
  /// The undisturbed samples when they are at least a quarter of all
  /// samples, otherwise all samples (the whole run measured a busy host).
  /// In a steal episode most samples are disturbed, and the few that are
  /// not still time the program. Samples stay in the order they were added.
  std::vector<double> Kept() const;
  /// "<undisturbed> of <all> undisturbed", for the run's notes.
  std::string Describe() const;

 private:
  std::vector<double> all_;
  std::vector<double> calm_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed window.
  double seconds = 10;
  /// Record spans and per-layer counters; report those instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Tiny inputs and a short window, for the benchmark's own smoke test.
  bool tiny = false;
  /// Flip one byte of the output under check before the oracle compares
  /// it (negative test: the run must then report incorrect).
  bool flip_oracle_byte = false;
  /// Fresh, unique directory this run keeps its DFS roots under.
  std::string work_dir;
  /// Where the trace file is written when `trace` is set.
  std::string trace_path;
};

/// Spans and per-layer samples, kept in memory and written out at exit.
/// A span has a name, start, end, parent span and request id; spans of one
/// request share the id. Every finished span also adds its duration as a
/// sample of "<name>_s", so per-layer times and counts are summarized the
/// same way: as the median over the timed units that recorded them.
/// Disabled tracers record nothing. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  int64_t Begin(const std::string& name, int64_t parent, int64_t request);
  void End(int64_t span);

  /// Records one sample of a per-layer metric.
  void Sample(const std::string& name, double value);

  /// Median of each metric's samples.
  std::map<std::string, double> Medians() const;

  /// Writes the spans as a JSON array.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int64_t id = 0;
    int64_t parent = 0;
    int64_t request = 0;
  };

  const bool enabled_;
  const double origin_ = Now();
  mutable agl::common::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::map<std::string, std::vector<double>> samples_ GUARDED_BY(mu_);
};

/// RAII span. A null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = 0,
             int64_t request = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* const tracer_;
  const int64_t id_;
};

/// Attempted vs failed for one kind of operation.
struct OpCount {
  std::string kind;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// What a workload hands back to main.
struct Report {
  /// Every oracle matched.
  bool correct = true;
  /// Why a check failed or a run is invalid (printed to stderr).
  std::vector<std::string> problems;
  /// Operations of the timed window, the base a failed share is taken
  /// over.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Attempted vs failed for every operation kind, timed window and
  /// set-up alike.
  std::vector<OpCount> ops;
  /// End-to-end metrics by name (units are listed in BENCHMARK.json).
  std::map<std::string, double> metrics;
  /// Diagnostic lines printed before the result (sample counts, sizes).
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Metric(const std::string& name, double value) { metrics[name] = value; }
};

/// Threads a workload keeps busy at once (shards x MR workers, trainer
/// workers), checked against the host's cores before it runs.
int BusyThreads(const std::string& workload);

/// The four workloads. Each generates its inputs from `options.seed`, sets
/// up several times (reporting the median as setup_s), discards a warm-up
/// unit, measures units for `options.seconds`, and then runs its oracles.
Report RunOffline(const Options& options, Tracer* tracer);
Report RunTrain(const Options& options, Tracer* tracer);
Report RunServeMixed(const Options& options, Tracer* tracer);
Report RunPagerank(const Options& options, Tracer* tracer);

}  // namespace perfbench
