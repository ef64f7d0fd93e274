#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload offline --seed 7 --seconds 16 --trace 0

Run it from the repository root. It builds the src/ libraries and the
benchmark binary into .bench_build/ (an incremental no-op once built),
prints a provenance header, runs one workload in a fresh work directory
and prints, as the last line of standard output, one JSON object with
"correct", "attempted", "failed" and "metrics" (each metric with its value
and the unit BENCHMARK.json gives it). With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones; the traced run also
writes its spans to .bench_build/traces/.

--tiny and --flip-oracle-byte are for the benchmark's own tests
(selftest.py). Exit code 0 when every output check passed, 1 when one did
not, 2 when the benchmark could not build or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# The benchmark must exit within 180 s; leave room for the result.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """SHA-256 over the sources the binary is built from, so two runs of
    different code are told apart even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if "__pycache__" in name:
                continue
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--flip-oracle-byte", action="store_true")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    print("provenance: nproc=%d cpu=%r git_rev=%s source_sha256=%s "
          "seed=%d workload=%s trace=%d" % (
              len(os.sched_getaffinity(0)), cpu_model(), git_rev(),
              source_digest(), args.seed, args.workload, args.trace))

    tag = "%s-s%d-%d-%d" % (args.workload, args.seed, os.getpid(),
                            time.time_ns())
    work_dir = os.path.join(ROOT, ".bench_build", "runs", tag)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-path", os.path.join(traces, tag + ".json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.flip_oracle_byte:
        cmd.append("--flip-oracle-byte")
    steal_before = cpu_ticks()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    steal_after = cpu_ticks()
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        # Time the hypervisor ran other guests on this host's CPUs: runs
        # with a large share measured a slower machine.
        print("host steal during the run: %.1f%% of CPU time" % (
            100.0 * (steal_after[0] - steal_before[0]) /
            (steal_after[1] - steal_before[1])))
    if proc.returncode not in (0, 3):
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("no result line")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            # A layer a workload does not use reports zero work.
            if not args.trace:
                fail("workload did not report " + m["name"])
            value = 0.0
        elif not args.trace and value <= 0:
            fail("%s is %r; end-to-end metrics are never 0" % (
                m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    unknown = sorted(set(raw["metrics"]) - {m["name"] for m in wanted})
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))

    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
