#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: every workload at tiny size, untraced and traced, must pass its
   output checks and print every metric BENCHMARK.json lists.
2. Negative: with one byte of the checked output flipped before the
   comparison, every workload must report incorrect and exit 1.

Takes about a minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "2",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, err = run(w, trace)
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            expect(code == 0 and result is not None and result["correct"]
                   and sorted(result["metrics"]) == sorted(names),
                   "%s trace=%d smoke run passes and prints every metric%s"
                   % (w, trace, "" if code == 0 else ": " + err[-500:]))
        code, result, err = run(w, 0, "--flip-oracle-byte")
        expect(code == 1 and result is not None and not result["correct"],
               "%s with one flipped output byte reports incorrect" % w)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
