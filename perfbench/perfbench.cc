// The benchmark binary. run.py builds it and drives it; it can also be run
// directly:
//
//   perfbench --workload offline --seed 7 --seconds 15 --trace 0 \
//             --work-dir <fresh dir> [--trace-path <file>] [--tiny]
//             [--flip-oracle-byte]
//
// It prints diagnostics, one "ops <kind> attempted=<n> failed=<n>" line per
// operation kind, and as its last line a JSON object with "correct",
// "attempted", "failed" and "metrics" (name -> value). Without tracing the
// metrics are the end-to-end ones; with tracing they are the per-layer
// medians. Exit code 0 when every oracle matched, 3 when one did not, 2 on
// a usage or set-up error (then without a result line).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Report;
using perfbench::Tracer;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<offline|train|serve_mixed|pagerank> --seed <n> --seconds "
               "<s> --trace <0|1> --work-dir <dir> [--trace-path <file>] "
               "[--tiny] [--flip-oracle-byte]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--flip-oracle-byte") {
      o.flip_oracle_byte = true;
    } else if (value == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = argv[++i];
    } else if (arg == "--trace-path") {
      o.trace_path = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const std::map<std::string, Report (*)(const Options&, Tracer*)> workloads =
      {{"offline", perfbench::RunOffline},
       {"train", perfbench::RunTrain},
       {"serve_mixed", perfbench::RunServeMixed},
       {"pagerank", perfbench::RunPagerank}};
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) return Usage("unknown workload");
  if (!have_seed || o.seconds <= 0 || o.work_dir.empty()) {
    return Usage("--seed, a positive --seconds and --work-dir are required");
  }

  // More busy threads than cores would time the scheduler, not the system.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const int busy = perfbench::BusyThreads(o.workload);
  std::printf("threads: %d busy of %d cores\n", busy, cores);
  if (busy > cores) {
    std::fprintf(stderr, "perfbench: %s keeps %d threads busy but the host "
                 "has %d cores\n", o.workload.c_str(), busy, cores);
    return 2;
  }

  // A fresh root per run, removed after the run's checks, so no run's
  // set-up pays for cleaning up an earlier one.
  std::error_code ec;
  if (!std::filesystem::create_directories(o.work_dir, ec)) {
    return Usage(("work dir exists or cannot be created: " + o.work_dir)
                     .c_str());
  }
  Tracer tracer(o.trace);
  const Report report = it->second(o, &tracer);
  std::filesystem::remove_all(o.work_dir, ec);

  for (const auto& note : report.notes) std::printf("%s\n", note.c_str());
  for (const auto& op : report.ops) {
    std::printf("ops %s attempted=%lld failed=%lld\n", op.kind.c_str(),
                static_cast<long long>(op.attempted),
                static_cast<long long>(op.failed));
  }
  for (const auto& p : report.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 2;
  }

  std::map<std::string, double> metrics = report.metrics;
  if (o.trace) {
    metrics = tracer.Medians();
    if (!o.trace_path.empty() && !tracer.Write(o.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.trace_path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 3;
}
