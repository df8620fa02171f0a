#!/usr/bin/env python3
"""Repository benchmark: build the store from source, run one workload.

    python3 perfbench/run.py --workload geo-causal --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, both metric sets
    python3 perfbench/run.py --self-test     # determinism and seed plumbing

Run from the repository root. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones. Workloads,
metrics and bounds are listed in BENCHMARK.json; perfbench/provenance.json
records why each workload was chosen and what it leaves idle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["geo-causal", "strong-openloop", "nemesis-churn"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("neither dune nor opam is on PATH")


def build():
    """Build the benchmark executable (and the libraries it links)."""
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("run from the repository root: %s is missing" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "--display", "quiet",
                            "perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run(args, timeout):
    """Run the executable, relaying its output; returns its exit code."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    start = time.monotonic()
    build()
    if a.self_test:
        sys.exit(run(["--self-test"], None))
    common = ["--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.workload is not None:
        trace = a.trace if a.trace is not None else 0
        budget = max(10.0, RUN_TIMEOUT_S - (time.monotonic() - start))
        sys.exit(run(["--workload", a.workload, "--trace", str(trace)] + common, budget))
    # every workload, each metric set: one summary object per run, then an
    # overall verdict line
    traces = [a.trace] if a.trace is not None else [0, 1]
    results = {}
    for w in WORKLOADS:
        for t in traces:
            print("== %s, trace %d" % (w, t), flush=True)
            code = run(["--workload", w, "--trace", str(t)] + common, RUN_TIMEOUT_S)
            results["%s/trace%d" % (w, t)] = code == 0
    print(json.dumps({"all_correct": all(results.values()), "runs": results}))
    sys.exit(0 if all(results.values()) else 1)


if __name__ == "__main__":
    main()
