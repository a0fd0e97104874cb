#!/usr/bin/env python3
"""rigcn benchmark entry point.

    python3 perfbench/run.py --workload infer_desk --seed 1 --seconds 20 --trace 0

Run from the repository root. Every run starts fresh worker processes with
``src`` on PYTHONPATH and the BLAS thread count pinned. An untraced run first
starts ``SETUP_REPEATS - 1`` set-up-only workers, then the measuring worker,
and reports ``setup_s`` as the median set-up time of all of them: the time
from starting a process to the moment it could send its first timed op.

Standard output ends with a ``report`` line holding every detail the worker
recorded (environment, digests, failure share, latency percentile), then one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("train_desk", "infer_desk", "infer_scan")
# BLAS threads per worker: one, so a closed loop with one client measures the
# same work on a 2-core machine whatever else is running there.
BLAS_THREADS = 1
SETUP_REPEATS = 5
# Whole-run limit; a run must end well inside three minutes.
DEADLINE_S = 170.0
WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them depends on the machine's memory state, which moved
    # peak RSS by a few MB from one set of runs to the next.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def run_worker(args, env: dict, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and, unless set-up only,
    its report."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker exited with code {code} before reporting")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rigcn" / "__init__.py").is_file():
        print(f"run.py: no rigcn sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    try:
        setups = [] if args.trace else [
            run_worker(args, env, deadline, True)[0] for _ in range(SETUP_REPEATS - 1)]
        setup, report = run_worker(args, env, deadline, False)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    metrics = report["metrics"]
    if not args.trace:
        setups.append(setup)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        report["details"]["setup_s_samples"] = setups
    report["environment"]["setup_repeats"] = len(setups)
    print("report " + json.dumps(report))
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
