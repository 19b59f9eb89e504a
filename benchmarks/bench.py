#!/usr/bin/env python3
"""Seeded benchmark of the fairclus solver, one workload per run.

Run from the repository root:

    python3 benchmarks/bench.py --workload center-lambda --seed 1 \
        --seconds 30 --trace 0

It builds the workload's inputs from ``--seed``, solves them in a closed
loop in this one process for ``--seconds``, checks every output, and prints
two JSON lines: run details (environment, sample counts, output digest,
exact counters), then the result with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer split. ``--smoke`` runs the workload at toy
size. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("center-lambda", "medmeans-lp", "desk-oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = 5  # this process plus fresh child processes
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy-size inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for "
                        "the repeated set-up samples)")
    return p.parse_args(argv)


def set_up(args):
    """Import the solver, build the pool and warm up; returns
    (pool, seconds spent generating, seconds of the whole set-up)."""
    start = time.perf_counter()
    # imported here, after the thread variables are pinned: numpy reads them
    # once, when it loads
    import workloads
    gen_start = time.perf_counter()
    pool = workloads.make_pool(args.workload, args.seed, args.smoke)
    gen_s = time.perf_counter() - gen_start
    workloads.warm_up(args.workload)
    return pool, gen_s, time.perf_counter() - start


def setup_sample(args):
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment():
    env = {"nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
           "python": platform.python_version()}
    for package in ("numpy", "scipy", "networkx"):
        try:
            env[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            env[package] = None
    return env


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "fairclus" / "__init__.py").is_file():
        print(f"fairclus sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pool, gen_s, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

    import harness
    import workloads
    if args.trace:
        _, trace_count = workloads.WORKLOADS[args.workload]
        run, metrics, details = harness.run_traced(pool, trace_count, args.seconds, gen_s)
        units = harness.PER_LAYER
    else:
        run, metrics, details = harness.run_untraced(pool, args.seconds)
        metrics["setup_s"] = statistics.median(samples)
        units = harness.END_TO_END
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   smoke=args.smoke, setup_samples=samples,
                   problems=run.problems[:5], **environment())
    correct = not run.problems
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
