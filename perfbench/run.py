#!/usr/bin/env python3
"""PAST simulator benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source tree of this repository. The first form
builds perfbench/src/main.exe with dune into .bench_build/, runs one
workload (see perfbench/README.md) and prints, as its last stdout line,
one JSON object with the keys correct, attempted, failed and metrics;
the metrics are the end_to_end set of BENCHMARK.json with --trace 0 and
the per_layer set with --trace 1. The second form runs every workload,
untraced and traced, and prints every metric.

Everything the run writes stays under the tree: the build in
.bench_build/, the store scratch directories in .bench_tmp/ (removed
after the run) and the traced run's spans in .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, ".bench_build", "default", "perfbench", "src", "main.exe")
WORKLOADS = ["lookup_zipf", "fill_log", "churn_mixed"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def check_tree():
    for p in ["dune-project", "lib", os.path.join("perfbench", "src", "dune")]:
        if not os.path.exists(os.path.join(ROOT, p)):
            fail("%s missing: run from the root of a full source tree" % p)


def tool_env():
    env = dict(os.environ)
    # Nothing outside the tree: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(ROOT, ".bench_build", "cache")
    return env


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", ".bench_build",
         "--display", "quiet", "./perfbench/src/main.exe"],
        cwd=ROOT, env=tool_env(), stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", r.returncode)


def revision():
    """Content hash of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_one(workload, seed, seconds, trace, bench):
    tmp = os.path.join(ROOT, ".bench_tmp", "run-%d" % os.getpid())
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    args = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--revision", revision()]
    if trace:
        args += ["--spans-out", os.path.join(out, "spans-%s.csv" % workload)]
    env = dict(os.environ)
    env["TMPDIR"] = tmp  # Log_store scratch directories
    try:
        r = subprocess.run(args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 3)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    # 0: checks passed; 1: an output check failed (result says so)
    if r.returncode not in (0, 1) or not lines:
        fail("%s exited with %d" % (workload, r.returncode), r.returncode or 1)
    result = json.loads(lines[-1])
    if r.returncode != 0:
        result["correct"] = False
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail("%s: metric %s missing or malformed: %r" % (workload, m["name"], got), 1)
        metrics[m["name"]] = got
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("%s: no operation attempted" % workload, 1)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    a = ap.parse_args()
    bench = spec()
    check_tree()
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    if seconds < 1:
        fail("--seconds must be positive")
    if not a.all and a.workload is None:
        fail("give --workload or --all")
    build()
    if a.all:
        ok = True
        for w in WORKLOADS:
            for trace in (0, 1):
                print("== %s trace=%d seed=%d" % (w, trace, a.seed))
                r = run_one(w, a.seed, seconds, trace, bench)
                print(json.dumps(r))
                ok = ok and r["correct"]
        sys.exit(0 if ok else 1)
    r = run_one(a.workload, a.seed, seconds, a.trace, bench)
    print(json.dumps(r))
    sys.exit(0 if r["correct"] else 1)


if __name__ == "__main__":
    main()
