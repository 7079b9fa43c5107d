"""Benchmark launcher for coneq.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ray-cloud --seed 1 --seconds 10 --trace 0

The launcher pins the BLAS thread count to 1, starts the measured worker
(perfbench/worker.py) against the checkout's own ``src/``, and prints, as
its last two lines of standard output, one ``{"run": ...}`` record with the
environment and one result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, taken from spans recorded
in a separate traced run.  ``setup_s`` is the median over several worker
start-ups: the launcher first starts SETUP_PROBES workers that stop after
their warm-up, then the measured one.

It exits non-zero without printing a result when the checkout holds no
``src/coneq`` or any worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("verify-all", "ray-cloud", "chart-frames", "exact-oracle")
BLAS_THREADS = "1"
# Workers started only to time set-up; the measured worker adds one more.
SETUP_PROBES = 4
# Every run, set-up probes included, must end within this many seconds.
DEADLINE_S = 170.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="0: end-to-end metrics; 1: per-layer metrics from spans")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest batches and one trial per suite (self-test)")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt the first output before it is checked (self-test)")
    return parser


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the measured sources, for checkouts that are not git
    repositories."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, worker_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": worker_env.get("numpy"),
        "blas": worker_env.get("blas"),
        "blas_threads": int(BLAS_THREADS),
        "seed": args.seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _start_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion; return its final JSON line."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *argv,
           "--spawned-at", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left to start a worker")
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from exc
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "coneq" / "__init__.py").is_file():
        print(f"error: no coneq sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_start_worker([*argv, "--setup-only"], env,
                                            deadline)["setup_s"])
        result = _start_worker(argv, env, deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worker_env, raw = result.pop("env"), result.pop("raw")
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    run = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "tiny": args.tiny, "plant_fault": args.plant_fault,
           "raw": raw, "env": environment(args, worker_env)}
    print(json.dumps({"run": run}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
