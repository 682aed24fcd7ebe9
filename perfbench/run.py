"""Benchmark of ksurf: the outer fixed-point loop, its outputs and its queries.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every child runs ``worker.py`` in a fresh
Python process on ``src/`` of that checkout, with BLAS and OpenMP pinned
to one thread. With ``--trace 0`` it first starts a few processes that only
set up, so ``setup_s`` is the median of several set-ups, then the worker
that runs the rounds. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("grow", "fine", "branch")
SETUP_PROBES = 2            # set-up-only processes besides the worker
CHILD_TIMEOUT_S = 170.0
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list) -> tuple:
    """Start worker.py with ``args``; returns (exit code, its last JSON line)."""
    started = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args, "--started", repr(started)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
        return 124, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ksurf" / "__init__.py").is_file():
        print(f"no ksurf sources under {ROOT / 'src'}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    run_dir = OUT_DIR / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", str(run_dir)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            code, out = run_child([*common, "--setup-only"])
            if code != 0 or out is None:
                print("set-up probe failed", file=sys.stderr)
                return code or 1
            setups.append(out["setup_s"])
    code, out = run_child([*common, "--trace", str(args.trace)])
    if out is None:
        print(f"worker exited with {code} and no result", file=sys.stderr)
        return code or 1
    setups.append(out.pop("setup_s"))
    if not args.trace and out["metrics"]:
        out["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                          **out["metrics"]}
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
